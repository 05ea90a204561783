#include "base/strings.hh"

#include <cctype>

namespace wcrt {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

std::string
trim(std::string_view text)
{
    size_t b = 0;
    size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return std::string(text.substr(b, e - b));
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &ch : out)
        ch = static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch)));
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

uint64_t
fnv1a(std::string_view text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : text) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace wcrt
