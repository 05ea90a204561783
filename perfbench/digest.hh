/**
 * @file
 * Digest of a workload's simulated statistics, and the check against
 * the stored reference digests.
 *
 * Every statistic is printed with "%.17g", which round-trips a double
 * exactly, so two runs digest alike only when every statistic is
 * bit-identical. The simulators are deterministic, so the check is
 * exact: no tolerance.
 */

#ifndef WCRT_PERFBENCH_DIGEST_HH
#define WCRT_PERFBENCH_DIGEST_HH

#include <cstdint>
#include <string>

namespace wcrt::perfbench {

/** Accumulates labelled statistics as text and hashes the text. */
class Digest
{
  public:
    void add(const std::string &label, double value);
    void add(const std::string &label, uint64_t value);
    void add(const std::string &label, const std::string &value);

    /** The accumulated "label=value" lines. */
    const std::string &text() const { return lines; }

    /** 64-bit FNV-1a of text(), as 16 lowercase hex digits. */
    std::string hex() const;

  private:
    std::string lines;
};

/** The default seed, the registry's dataset seed. */
constexpr uint64_t kReferenceSeed = 7;

/** Outcome of comparing a digest with the reference table. */
enum class DigestCheck { Match, Mismatch, NoReference };

/**
 * Look up (workload, seed) in `reference` and compare `hex`. Each
 * non-blank line of `reference` that does not start with '#' reads
 * "<workload> <seed> <hex>". A workload's scale is fixed, so the seed
 * alone picks the line.
 */
DigestCheck checkDigest(const std::string &reference,
                        const std::string &workload, uint64_t seed,
                        const std::string &hex);

/**
 * Whether a lookup result passes: a match always does, a mismatch
 * never does, and a missing reference passes only for seeds other
 * than kReferenceSeed, which must have one.
 */
bool digestAccepted(DigestCheck check, uint64_t seed);

/** "%.17g" of a double. */
std::string exactText(double value);

} // namespace wcrt::perfbench

#endif // WCRT_PERFBENCH_DIGEST_HH
