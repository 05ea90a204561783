#include "digest.hh"

#include <cstdio>
#include <sstream>

namespace wcrt::perfbench {

std::string
exactText(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
Digest::add(const std::string &label, double value)
{
    add(label, exactText(value));
}

void
Digest::add(const std::string &label, uint64_t value)
{
    add(label, std::to_string(value));
}

void
Digest::add(const std::string &label, const std::string &value)
{
    lines += label;
    lines += '=';
    lines += value;
    lines += '\n';
}

std::string
Digest::hex() const
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : lines) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

DigestCheck
checkDigest(const std::string &reference, const std::string &workload,
            uint64_t seed, const std::string &hex)
{
    std::istringstream in(reference);
    std::string line;
    const std::string want_seed = std::to_string(seed);
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, seed_text, digest;
        if (!(fields >> name >> seed_text >> digest))
            continue;
        if (name != workload || seed_text != want_seed)
            continue;
        return digest == hex ? DigestCheck::Match : DigestCheck::Mismatch;
    }
    return DigestCheck::NoReference;
}

bool
digestAccepted(DigestCheck check, uint64_t seed)
{
    if (check == DigestCheck::NoReference)
        return seed != kReferenceSeed;
    return check == DigestCheck::Match;
}

} // namespace wcrt::perfbench
