/**
 * @file
 * Seeded value generators for the scenario DSL: keys, documents and
 * query parameters as pure functions of (scenario seed, actor,
 * op index).
 *
 * The loadgen engine's determinism contract says a run's op streams
 * are bit-identical at jobs=1 and jobs=N. Generators uphold it by
 * construction: every draw reseeds a private Rng from a SplitMix64
 * fold of the (seed, actor, op) triple, so the value at any position
 * is independent of evaluation order, interleaving and worker count —
 * the counter-based idiom of genny's DocumentGenerator, without the
 * shared-stream hazards of handing one Rng to N actors.
 *
 * Spec grammar (one generator per [generators] entry):
 *
 *     zipf(N, S)        key rank in [0, N), Zipfian with exponent S
 *     uniform(LO, HI)   integer in [LO, HI] / scalar in [LO, HI)
 *     gauss(MEAN, SD)   normal scalar
 *     bytes(LEN)        LEN-byte printable document
 *     words(COUNT, VOCAB) COUNT query terms from a Zipfian VOCAB
 */

#ifndef WCRT_SCENARIO_GENERATOR_HH
#define WCRT_SCENARIO_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/rng.hh"

namespace wcrt {

/** The position a generator draw is evaluated at. */
struct GenCtx
{
    uint64_t seed = 0;   //!< scenario seed
    uint64_t actor = 0;  //!< dense actor index
    uint64_t op = 0;     //!< per-actor op index
};

/** SplitMix64-style fold; the one seed-derivation used everywhere. */
uint64_t mixSeed(uint64_t a, uint64_t b);

/** @name Generator argument limits (rejected beyond, at parse time). */
/** @{ */
constexpr uint64_t kMaxGenRanks = 1 << 24;  //!< zipf N, words VOCAB
constexpr uint64_t kMaxGenTextLength = 1 << 20;  //!< bytes LEN, words COUNT
constexpr double kMaxZipfExponent = 16;
constexpr double kMaxGenMagnitude = 1e15;  //!< |LO|, |HI|, |MEAN|, SD
/** @} */

/** The supported generator shapes. */
enum class GenKind : uint8_t { Zipf, Uniform, Gauss, Bytes, Words };

/** Spec-string name of a kind ("zipf", "uniform", ...). */
const char *toString(GenKind k);

/**
 * One parsed value generator. Copyable; heavy precomputed state (the
 * Zipf cdf) is shared between copies. All draw methods are const and
 * thread-safe: state lives entirely in the GenCtx.
 */
class ValueGen
{
  public:
    ValueGen() = default;

    /**
     * Parse a spec string ("zipf(1000, 0.99)"). Counts go through
     * toCount() and reals through toReal() (with an optional leading
     * '-' where a negative value makes sense), each against the
     * limits above.
     * @return false with `err` set on a malformed spec.
     */
    static bool parse(const std::string &spec, ValueGen &out,
                      std::string &err);

    GenKind kind() const { return k; }

    /** The spec in canonical form ("zipf(1000, 0.99)"). */
    std::string spec() const;

    /**
     * Index draw (Zipf: rank in [0, N); Uniform: integer in
     * [LO, HI]). Other kinds draw their scalar and truncate.
     */
    uint64_t drawIndex(const GenCtx &ctx) const;

    /**
     * Scalar draw (Uniform: [LO, HI); Gauss: N(MEAN, SD); Zipf: the
     * rank as a double; Bytes/Words: the text length).
     */
    double drawScalar(const GenCtx &ctx) const;

    /**
     * Text draw (Bytes: LEN printable chars; Words: COUNT
     * space-separated Zipf-ranked terms "w<rank>"; other kinds:
     * decimal rendering of drawIndex).
     */
    std::string drawText(const GenCtx &ctx) const;

  private:
    Rng rngAt(const GenCtx &ctx) const;

    GenKind k = GenKind::Uniform;
    double a = 0.0;  //!< lo / mean / (unused)
    double b = 1.0;  //!< hi / sd / zipf exponent
    uint64_t n = 1;  //!< zipf ranks / bytes len / words count
    uint64_t m = 1;  //!< words vocab
    std::shared_ptr<const ZipfSampler> zipf;  //!< Zipf/Words table
};

} // namespace wcrt

#endif // WCRT_SCENARIO_GENERATOR_HH
