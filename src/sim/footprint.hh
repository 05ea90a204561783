/**
 * @file
 * Cache-capacity sweep: the MARSSx86 experiment of Section 5.4.
 *
 * One trace pass drives a ladder of cache instances (16 KB ... 8 MB,
 * 8-way, 64-byte lines, like the paper's simulator configuration) for
 * the instruction side, the data side and a unified view. The
 * resulting miss-ratio-vs-capacity curves expose each workload's
 * instruction and data footprint: the capacity where the curve
 * flattens is the working-set size.
 *
 * The sweep is the set-associative oracle the stack-distance profile
 * (sim/stack_distance.hh) is checked against, and it is one serial
 * walk in three stages per block: the pc and memAddr arrays are
 * shifted to line ids once up front (AVX2 where the host supports
 * it); the three reference streams are run-length compressed once
 * (sim/line_runs.hh) — consecutive accesses to the same (line, rw)
 * are guaranteed MRU hits in every rung, so only the run heads reach
 * the rung loops; and each (rung, stream) cache walks those runs,
 * one tag array at a time so its sets stay hot, with a two-slot memo
 * that credits set-MRU repeats without a tag walk. All stages are
 * equivalence preserving: miss and access counts stay bit-identical
 * to the per-op path. A kind-scoped sweep builds the rung caches and
 * memos of one stream only and compresses only that stream.
 */

#ifndef WCRT_SIM_FOOTPRINT_HH
#define WCRT_SIM_FOOTPRINT_HH

#include <optional>
#include <vector>

#include "sim/cache.hh"
#include "sim/line_runs.hh"
#include "trace/microop.hh"

namespace wcrt {

/**
 * Multi-capacity cache sweep sink.
 */
class FootprintSweep : public TraceSink
{
  public:
    /**
     * @param sizes_kb Cache capacities to ladder (ascending).
     * @param assoc Associativity of every rung (paper: 8).
     * @param line_bytes Line size (paper: 64).
     * @param only When set, sweep only that stream; its curve is
     *        bit-identical to the all-streams sweep's, and
     *        missRatios() is fatal for the other kinds. When unset,
     *        sweep all three streams.
     */
    explicit FootprintSweep(std::vector<uint32_t> sizes_kb,
                            uint32_t assoc = 8,
                            uint32_t line_bytes = 64,
                            std::optional<SweepKind> only = std::nullopt);

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: precomputes line ids for the block, run-
     * length compresses each reference stream, then walks each
     * (rung, stream) cache over the compressed events — one tag array
     * at a time so its sets stay hot — skipping set-MRU repeats via
     * creditRepeatHits().
     */
    void consumeBatch(const OpBlockView &ops) override;

    /** The capacities swept, in KB. */
    const std::vector<uint32_t> &sizesKb() const { return sizes; }

    /**
     * Miss ratio at each capacity for one stream kind. Fatal when
     * `kind` is not swept.
     */
    std::vector<double> missRatios(SweepKind kind) const;

    /** True when this sweep records `kind`'s stream. */
    bool records(SweepKind kind) const { return !only || *only == kind; }

    /** Instructions consumed. */
    uint64_t instructions() const { return ops; }

  private:
    /**
     * Two-slot set-MRU repeat memo, one per (rung, stream) cache —
     * the batch walk is the cache's only accessor, so the memo sees
     * every access that could invalidate a slot. A slot records a
     * line this cache accessed and stays valid while that line is
     * still the MRU line of its set — i.e. until a real access
     * touches the same set. While valid, a re-access of the line is a
     * guaranteed hit that leaves the within-set LRU order unchanged,
     * so it can be credited without a tag walk (a write additionally
     * requires the line already dirty). Two slots cover the common
     * alternation between a load stream and a store stream that a
     * single memo would thrash on.
     */
    struct RepeatSlots
    {
        uint64_t line[2] = {0, 0};
        uint32_t set[2] = {0, 0};
        uint8_t dirty[2] = {0, 0};
        uint8_t valid[2] = {0, 0};
        uint8_t victim = 0;
    };

    /**
     * True when `line` may skip its tag walk: it matches a slot that
     * is still the MRU line of its set, and a write finds it already
     * dirty (a write to a clean MRU line must walk to set the bit).
     */
    static bool repeatHit(const RepeatSlots &f, uint64_t line,
                          bool is_write);

    /**
     * Record a real access in the memo. The accessed line is now the
     * MRU line of `set`, so any slot tracking that set is repointed
     * at it; a new set evicts the older slot.
     */
    static void noteAccess(RepeatSlots &f, uint64_t line, uint32_t set,
                           bool is_write);

    /**
     * Replay one block's runs through `cache`: walk each run's head,
     * credit the guaranteed-hit tail (count - 1 MRU re-touches) and
     * any run the memo proves is still MRU of its set. Runs are
     * RLE'd per (line, write sense) — see sim/line_runs.hh — so the
     * memo's dirty tracking sees a uniform sense per run.
     */
    static void sweepStream(Cache &cache, RepeatSlots &f,
                            const std::vector<LineRun> &runs);
    void clearFilters();

    /** One stream's rung caches and their repeat memos. */
    struct Ladder
    {
        std::vector<Cache> caches;       //!< one per rung
        std::vector<RepeatSlots> memos;  //!< one per rung
    };

    Ladder &ladder(SweepKind kind)
    {
        return ladders[static_cast<size_t>(kind)];
    }
    const Ladder &ladder(SweepKind kind) const
    {
        return ladders[static_cast<size_t>(kind)];
    }

    std::vector<uint32_t> sizes;
    //! Indexed by SweepKind; empty for a stream that is not swept.
    Ladder ladders[3];
    std::optional<SweepKind> only;  //!< unset: all three swept
    LineRunStreams runs;  //!< per-block compressed streams + scratch
    uint32_t lineShift = 6;
    bool filtersLive = false;  //!< memo state exists from a batch
    uint64_t ops = 0;
};

/** The paper's capacity ladder: 16 KB to 8192 KB, doubling. */
std::vector<uint32_t> paperSweepSizesKb();

/**
 * Capacity where a miss-ratio curve flattens — the working-set
 * (footprint) estimate the Figure 6-9 analyses quote. The knee is the
 * first capacity whose miss ratio is within 15% of the largest
 * capacity's floor (compulsory misses remain at any size, so the
 * floor is not zero).
 *
 * The final rung trivially matches its own floor, so it can never be
 * a knee: a curve that is still falling steeply into the last rung
 * has its knee *beyond* the ladder, and this returns nullopt rather
 * than masquerading the ladder's end as a measurement. Callers print
 * ">LAST KB" for that case.
 *
 * @param curve Miss ratios, one per capacity (indexed like sizes_kb).
 * @param sizes_kb Ascending capacity ladder.
 * @return The knee capacity in KB, or nullopt when the curve has not
 *         flattened within the ladder.
 */
std::optional<uint32_t> kneeCapacityKb(
    const std::vector<double> &curve,
    const std::vector<uint32_t> &sizes_kb);

} // namespace wcrt

#endif // WCRT_SIM_FOOTPRINT_HH
