#include "base/flags.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace wcrt {

std::optional<uint64_t>
toCount(std::string_view text, uint64_t min, uint64_t max)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string_view::npos)
        return std::nullopt;
    std::string s(text);
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE || v < min || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
toReal(std::string_view text, double min, double max)
{
    // A leading digit or '.' rules out a sign, whitespace, nan and inf;
    // the character set rules out hex floats.
    if (text.find_first_of(".0123456789") != 0 ||
        text.find_first_not_of("0123456789.eE+-") != std::string_view::npos)
        return std::nullopt;
    std::string s(text);
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(s.c_str(), &end);
    if (*end != '\0' || errno == ERANGE || !std::isfinite(v) || v < min ||
        v > max)
        return std::nullopt;
    return v;
}

namespace {

[[noreturn]] void
badArg(std::string_view name, std::string_view text,
       const std::string &range)
{
    throw FlagError(FlagError::kBadValue,
                    "bad " + std::string(name) + " '" + std::string(text) +
                        "' (expected " + range + ")");
}

} // namespace

uint64_t
countArg(std::string_view name, std::string_view text, uint64_t min,
         uint64_t max)
{
    if (std::optional<uint64_t> v = toCount(text, min, max))
        return *v;
    badArg(name, text, rangeText(min, max));
}

double
realArg(std::string_view name, std::string_view text, double min,
        double max)
{
    if (std::optional<double> v = toReal(text, min, max))
        return *v;
    badArg(name, text, rangeText(min, max));
}

bool
parseLineBytes(const std::string &text, uint32_t &out)
{
    std::optional<uint64_t> v = toCount(text, 1, kMaxLineBytes);
    if (!v || !std::has_single_bit(*v))
        return false;
    out = static_cast<uint32_t>(*v);
    return true;
}

double
envScale()
{
    const char *s = std::getenv("WCRT_SCALE");
    return s ? realArg("WCRT_SCALE", s, kMinScale, kMaxScale) : 0.5;
}

FlagArgs
parseFlags(const std::vector<FlagCommand> &commands,
           const std::vector<std::string> &args)
{
    FlagArgs out;
    size_t i = 0;
    if (commands.size() == 1 && commands[0].name.empty()) {
        out.command = &commands[0];
    } else if (args.empty()) {
        throw FlagError(FlagError::kUsage, "missing command (try --help)");
    } else if (args[0] != "--help" && args[0] != "-h") {
        for (const FlagCommand &cmd : commands)
            if (cmd.name == args[0])
                out.command = &cmd;
        if (!out.command)
            throw FlagError(FlagError::kUsage, "unknown command '" +
                                                   args[0] +
                                                   "' (try --help)");
        i = 1;
    }
    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            out.help = true;
            return out;
        }
        if (arg.rfind("--", 0) != 0) {
            out.positional.push_back(arg);
            continue;
        }
        size_t eq = arg.find('=');
        std::string name = arg.substr(2, eq == std::string::npos
                                             ? std::string::npos
                                             : eq - 2);
        const std::vector<Flag> &flags = out.command->flags;
        auto flag = std::find_if(
            flags.begin(), flags.end(),
            [&](const Flag &f) { return f.name == name; });
        if (flag == flags.end())
            throw FlagError(FlagError::kUsage,
                            "unknown flag --" + name + " (try --help)");
        std::string value;
        if (flag->meta.empty()) {
            if (eq != std::string::npos)
                throw FlagError(FlagError::kUsage,
                                "--" + name + " takes no value");
        } else if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
        } else if (i + 1 < args.size()) {
            value = args[++i];
        } else {
            throw FlagError(FlagError::kUsage,
                            "--" + name + " needs a value");
        }
        if (!flag->set(value))
            throw FlagError(FlagError::kBadValue,
                            "bad --" + name + " '" + value +
                                "' (expected " + flag->expected + ")");
    }
    const FlagCommand &cmd = *out.command;
    if (out.positional.size() > cmd.maxArgs)
        throw FlagError(FlagError::kUsage,
                        "unexpected argument '" +
                            out.positional[cmd.maxArgs] + "' (try --help)");
    if (out.positional.size() < cmd.minArgs)
        throw FlagError(FlagError::kUsage,
                        "missing " + cmd.args + " (try --help)");
    return out;
}

std::string
flagHelp(const std::string &tool, const std::vector<FlagCommand> &commands)
{
    auto spelling = [](const Flag &f) {
        return "--" + f.name + (f.meta.empty() ? "" : "=" + f.meta);
    };
    std::ostringstream os;
    os << "usage:\n";
    std::vector<const Flag *> flags;
    for (const FlagCommand &cmd : commands) {
        std::string line = "  " + tool.substr(tool.rfind('/') + 1);
        if (!cmd.name.empty())
            line += " " + cmd.name;
        const std::string indent(line.size(), ' ');
        if (!cmd.args.empty())
            line += " " + cmd.args;
        for (const Flag &f : cmd.flags) {
            // Appended, not `"[" + spelling(f) + "]"`: that spelling
            // trips a GCC 12 -Wrestrict false positive at -O3.
            std::string tok = "[";
            tok += spelling(f);
            tok += "]";
            if (line.size() + 1 + tok.size() > 76) {
                os << line << "\n";
                line = indent;
            }
            line += " " + tok;
            if (std::none_of(flags.begin(), flags.end(),
                             [&](const Flag *g) { return g->name == f.name; }))
                flags.push_back(&f);
        }
        os << line << "\n";
    }
    if (!flags.empty())
        os << "\n";
    for (const Flag *f : flags) {
        std::string head = "  " + spelling(*f);
        os << head << std::string(head.size() < 20 ? 20 - head.size() : 1, ' ')
           << f->help;
        std::string notes = f->expected;
        if (!f->fallback.empty())
            notes += (notes.empty() ? "default " : ", default ") + f->fallback;
        os << (notes.empty() ? "" : " [" + notes + "]") << "\n";
    }
    return os.str();
}

} // namespace wcrt
