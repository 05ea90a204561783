/**
 * @file
 * Small string utilities shared by the data generators and workloads.
 */

#ifndef WCRT_BASE_STRINGS_HH
#define WCRT_BASE_STRINGS_HH

#include <string>
#include <string_view>
#include <vector>

namespace wcrt {

/** Split on a single delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Split on runs of whitespace; empty tokens are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Drop leading and trailing whitespace. */
std::string trim(std::string_view text);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** ASCII lower-casing (the corpora are ASCII by construction). */
std::string toLower(std::string_view text);

/** True when text starts with the given prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** FNV-1a 64-bit hash; stable across platforms for partitioning. */
uint64_t fnv1a(std::string_view text);

} // namespace wcrt

#endif // WCRT_BASE_STRINGS_HH
