#include "scenario/parser.hh"

#include <fstream>
#include <sstream>

#include "base/strings.hh"

namespace wcrt {

namespace {

void
issue(ScenarioDoc &doc, int line, std::string msg)
{
    doc.issues.push_back({line, std::move(msg)});
}

} // namespace

std::string
ScenarioIssue::format(const std::string &source) const
{
    std::ostringstream os;
    os << source;
    if (line > 0)
        os << ":" << line;
    os << ": " << message;
    return os.str();
}

const ScenarioEntry *
ScenarioSection::find(const std::string &key) const
{
    for (const auto &e : entries)
        if (e.key == key)
            return &e;
    return nullptr;
}

const ScenarioSection *
ScenarioDoc::find(const std::string &name) const
{
    for (const auto &s : sections)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::string
ScenarioDoc::toText() const
{
    std::ostringstream os;
    for (size_t i = 0; i < sections.size(); ++i) {
        if (i > 0)
            os << "\n";
        os << "[" << sections[i].name << "]\n";
        for (const auto &e : sections[i].entries)
            os << e.key << " = " << e.value << "\n";
    }
    return os.str();
}

ScenarioDoc
parseScenarioText(const std::string &text, const std::string &source)
{
    ScenarioDoc doc;
    doc.source = source;

    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    ScenarioSection *current = nullptr;
    while (std::getline(in, raw)) {
        ++lineno;
        std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;

        if (line[0] == '[') {
            if (line.back() != ']') {
                issue(doc, lineno,
                      "malformed section header '" + line +
                          "' (expected [name])");
                continue;
            }
            std::string name = trim(line.substr(1, line.size() - 2));
            if (name.empty()) {
                issue(doc, lineno, "empty section name");
                continue;
            }
            if (doc.find(name)) {
                issue(doc, lineno,
                      "duplicate section [" + name + "]");
                current = nullptr;  // swallow the duplicate's entries
                continue;
            }
            doc.sections.push_back({name, lineno, {}});
            current = &doc.sections.back();
            continue;
        }

        size_t eq = line.find('=');
        if (eq == std::string::npos) {
            issue(doc, lineno,
                  "malformed line '" + line +
                      "' (expected key = value or [section])");
            continue;
        }
        ScenarioEntry entry;
        entry.key = trim(line.substr(0, eq));
        entry.value = trim(line.substr(eq + 1));
        entry.line = lineno;
        if (entry.key.empty()) {
            issue(doc, lineno, "missing key before '='");
            continue;
        }
        if (!current) {
            issue(doc, lineno,
                  "entry '" + entry.key +
                      "' before the first section header");
            continue;
        }
        if (current->find(entry.key)) {
            issue(doc, lineno,
                  "duplicate key '" + entry.key + "' in [" +
                      current->name + "]");
            continue;
        }
        current->entries.push_back(std::move(entry));
    }
    return doc;
}

ScenarioDoc
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ScenarioDoc doc;
        doc.source = path;
        doc.issues.push_back({0, "cannot read file"});
        return doc;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseScenarioText(buf.str(), path);
}

} // namespace wcrt
