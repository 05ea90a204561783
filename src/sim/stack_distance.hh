/**
 * @file
 * Single-pass miss-ratio curves via Mattson LRU stack distances.
 *
 * The capacity sweeps behind Figures 6-9 ask one question per rung:
 * how many accesses miss in an LRU cache of capacity C? For fully
 * associative LRU the answer for *every* C falls out of one pass over
 * the trace: an access hits a cache of C lines exactly when its stack
 * distance — the number of distinct lines touched since the previous
 * access to the same line — is below C (Mattson's inclusion
 * property). Two profiles answer it, with bit-identical curves:
 *
 *  - LadderStackProfile, for callers that know their ladder before
 *    replay: replaySweepLadder's stack and verify modes (and so
 *    `trace_tool mrc`, fig6-9 and scenario sweeps), the benches'
 *    liveSweep and `trace_tool attach --mrc`. It keeps the LRU stack
 *    as one move-to-front list with a boundary marker per rung
 *    (Mattson et al., 1970), so it counts which rung band a reuse
 *    falls in rather than its exact distance: O(1) for a reuse within
 *    the smallest rung, O(b) for one in band b.
 *  - StackDistanceProfile, the any-ladder path: a Fenwick tree over
 *    last-access time slots counts the exact distance histogram in
 *    O(log N) per distinct-line reference, so any ladder is a
 *    histogram walk afterwards. It serves histogram() callers and
 *    the benchmark's traced pass, and it is the oracle the ladder
 *    profile is tested against.
 *
 * Both share the open-addressing line map and the batch machinery of
 * the sweep (sim/line_runs.hh): line ids are precomputed with the
 * AVX2-dispatched shift and each stream is run-length compressed
 * once, so only run heads reach the stack — the count-1 tail of a run
 * is a guaranteed distance-zero reuse.
 *
 * A figure plots one stream, so the replay layer builds kind-scoped
 * profiles: they allocate, compress and walk only the stream they
 * were asked for, and asking one for another stream is a fatal error
 * rather than a curve of zeros. StackDistanceProfile's all-streams
 * form keeps the three stacks side by side (they are independent:
 * separate stacks, maps and histograms) and, with a worker cap above
 * 1, walks them in parallel on the shared pool, bit-identical to the
 * serial order.
 *
 * What these profiles are *not*: a set-associative model. The
 * conflict misses an 8-way rung sees do not exist here — though the
 * gap runs both ways, since a loop slightly wider than the capacity
 * thrashes fully-associative LRU where an uneven set mapping retains
 * lines. The replay layer's Verify mode (tracefile/replay.hh)
 * measures that divergence against the serial FootprintSweep oracle,
 * and the fully-associative equivalence is enforced bit-exactly by
 * tests.
 */

#ifndef WCRT_SIM_STACK_DISTANCE_HH
#define WCRT_SIM_STACK_DISTANCE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/footprint.hh"
#include "sim/line_runs.hh"
#include "trace/microop.hh"

namespace wcrt {

/**
 * Open-addressing line id → value map shared by both profiles:
 * linear probing over a power-of-two table, splitmix64-hashed since
 * line ids are near-sequential, rehashed at 70% load.
 */
struct LineSlotMap
{
    /** Key sentinel; line ids are addr >> shift. */
    static constexpr uint64_t kEmptyKey = ~0ull;

    std::vector<uint64_t> keys;  //!< line ids, kEmptyKey = free
    std::vector<uint64_t> vals;  //!< the owner's per-line value
    size_t live = 0;             //!< keys held

    /** Empty the map to its initial capacity. */
    void init();

    /** Slot holding `line`, or the free slot where it would go. */
    size_t probe(uint64_t line) const;

    /** Store a new `line` in the free slot `probe(line)` returned. */
    void insert(size_t slot, uint64_t line, uint64_t val);
};

/**
 * Reuse-distance profile sink: one pass, whole miss-ratio curve.
 */
class StackDistanceProfile : public TraceSink
{
  public:
    /**
     * All-streams profile: records the instruction, data and unified
     * streams side by side.
     *
     * @param line_bytes Cache-line size the distances are counted in
     *        (paper: 64; must be a power of two).
     * @param workers Executor cap for the per-stream fan-out on the
     *        shared worker pool; 0 or 1 profiles all three streams on
     *        the calling thread (bit-identical either way).
     * @param initial_slots Starting capacity of the time-slot space
     *        (power of two). The profile compacts and regrows the
     *        slot space as the clock fills it; the default is sized
     *        so steady-state traces rarely compact. Tests shrink it
     *        to exercise the compaction path.
     */
    explicit StackDistanceProfile(uint32_t line_bytes = 64,
                                  unsigned workers = 0,
                                  size_t initial_slots = 1 << 16);

    /**
     * Kind-scoped profile: records only the `only` stream, serially
     * on the calling thread. Its curve, histogram and counters are
     * bit-identical to that stream of the all-streams profile; the
     * accessors fail fatally for the other two kinds.
     *
     * @param only The one stream to record.
     * @param line_bytes As for the all-streams profile.
     * @param initial_slots As for the all-streams profile.
     */
    explicit StackDistanceProfile(SweepKind only,
                                  uint32_t line_bytes = 64,
                                  size_t initial_slots = 1 << 16);

    void consume(const MicroOp &op) override;

    /**
     * Batch-native path: one line-id precompute + RLE pass per block
     * (shared with FootprintSweep) over the recorded streams, then
     * each stream's run heads walk that stream's stack tree — in
     * parallel across the three streams when an all-streams profile
     * was given a worker cap.
     */
    void consumeBatch(const OpBlockView &ops) override;

    /**
     * Miss ratios of a fully-associative LRU cache at each capacity,
     * straight from the distance histogram: an access with distance d
     * hits every capacity of more than d lines. Identical to running
     * FootprintSweep with assoc = capacity/line_bytes at each rung —
     * but every rung is a histogram walk, so arbitrary ladders cost
     * nothing extra. Fatal when `kind` is not recorded.
     */
    std::vector<double> missRatios(
        SweepKind kind, const std::vector<uint32_t> &sizes_kb) const;

    /** Instructions consumed. */
    uint64_t instructions() const { return ops; }

    /** True when this profile records `kind`'s stream. */
    bool records(SweepKind kind) const { return !only || *only == kind; }

    // The per-stream accessors below are fatal, like missRatios(), for
    // a kind this profile does not record.

    /** Accesses counted into one stream's profile. */
    uint64_t accesses(SweepKind kind) const;

    /** Compulsory (first-touch) misses of one stream. */
    uint64_t coldMisses(SweepKind kind) const;

    /** Distinct lines one stream touched (its total footprint). */
    uint64_t distinctLines(SweepKind kind) const;

    /**
     * The raw distance histogram of one stream: histogram(k)[d] =
     * accesses whose stack distance was exactly d distinct lines.
     * Cold misses are not in the histogram (see coldMisses()).
     */
    const std::vector<uint64_t> &histogram(SweepKind kind) const;

  private:
    /**
     * One reference stream's LRU stack profile.
     *
     * The stack is represented positionally: every live line owns one
     * set bit in a Fenwick tree indexed by its last-access time slot,
     * so "distinct lines touched since slot t" is a rank query
     * (live - prefix(t)) in O(log slots). The clock allocates slots
     * monotonically; when it reaches the slot capacity the live slots
     * are renumbered densely (compact()) — order-preserving, so every
     * later distance is unchanged — and the slot space regrows to
     * keep at least half free, which makes compaction amortized
     * O(log) per access.
     */
    struct Stream
    {
        /** lastLine sentinel distinct from any real line id. */
        static constexpr uint64_t kNoLine = ~0ull - 1;

        LineSlotMap map;             //!< line → last-access time slot
        std::vector<uint64_t> fenwick;  //!< 1-based BIT over slots
        uint64_t clock = 0;          //!< next unused time slot
        size_t slotCap = 0;          //!< fenwick capacity (slots)
        std::vector<uint64_t> hist;  //!< hist[d] = reuses at distance d
        uint64_t cold = 0;           //!< first-touch misses
        uint64_t total = 0;          //!< accesses profiled
        uint64_t lastLine = kNoLine; //!< merges runs across blocks

        void init(size_t slots);
        void access(uint64_t line, uint32_t count);

      private:
        void bump(uint64_t d, uint64_t n);
        void fenAdd(size_t slot, int64_t delta);
        uint64_t fenPrefix(size_t slot) const;
        void compact();
    };

    void init(size_t initial_slots);
    Stream &stream(SweepKind kind)
    {
        return streams[static_cast<size_t>(kind)];
    }
    /** The recorded stream of `kind`; fatal when it is not recorded. */
    const Stream &streamFor(SweepKind kind) const;

    Stream streams[3];  //!< indexed by SweepKind
    std::optional<SweepKind> only;  //!< unset: all three recorded
    LineRunStreams runs;  //!< per-block RLE scratch
    uint32_t lineShift = 6;
    uint32_t lineBytes = 64;
    unsigned poolCap = 0;  //!< executor cap on the shared pool
    uint64_t ops = 0;
};

/**
 * Ladder-bounded LRU stack profile of one reference stream: the exact
 * miss ratios of fully-associative LRU caches at the rungs fixed at
 * construction, bit-identical to StackDistanceProfile::missRatios()
 * on the same ladder.
 *
 * The stack is one move-to-front list, index-linked in a node vector,
 * with one boundary marker per distinct rung capacity (Mattson's
 * marker stack). A line's band is the number of rungs its stack
 * position reaches past, so a reuse in band b misses the b smallest
 * rungs and hits the rest; band R (R distinct rungs) lies past the
 * top rung. A reuse bumps its band's count, then moves its line to
 * the front and shifts the boundary nodes of bands 0..b-1 down one
 * band: O(1) in band 0, O(b) in band b. A first touch shifts every
 * placed boundary and counts a cold miss; a rung gets its boundary
 * when the list first reaches its capacity.
 */
class LadderStackProfile : public TraceSink
{
  public:
    /**
     * @param kind The one stream to record.
     * @param sizes_kb Capacity ladder in KB, in any order, duplicates
     *        allowed; a rung below one line misses every access.
     * @param line_bytes Cache-line size (paper: 64; must be a power
     *        of two).
     */
    LadderStackProfile(SweepKind kind,
                       const std::vector<uint32_t> &sizes_kb,
                       uint32_t line_bytes = 64);

    void consume(const MicroOp &op) override;

    /** One line-id precompute + RLE pass per block, then the walk. */
    void consumeBatch(const OpBlockView &ops) override;

    /**
     * Miss ratio at each rung, in the constructor's ladder order:
     * (accesses - reuses below the rung) / accesses, the same integers
     * and division as StackDistanceProfile::missRatios().
     */
    std::vector<double> missRatios() const;

    /** Instructions consumed. */
    uint64_t instructions() const { return ops; }

    /** Accesses counted into the profile. */
    uint64_t accesses() const { return total; }

    /** Compulsory (first-touch) misses. */
    uint64_t coldMisses() const { return cold; }

    /** Distinct lines touched (the stream's total footprint). */
    uint64_t distinctLines() const { return map.live; }

  private:
    /** Null node index. */
    static constexpr uint32_t kNil = ~0u;
    /** lastLine sentinel distinct from any real line id. */
    static constexpr uint64_t kNoLine = ~0ull - 1;

    /** One stack entry; nodes are never freed, one per line. */
    struct Node
    {
        uint32_t prev;  //!< toward the front (MRU), kNil at the head
        uint32_t next;  //!< toward the back, kNil at the tail
        uint32_t band;  //!< rungs this position reaches past
    };

    void access(uint64_t line, uint32_t count);
    void pushFront(uint32_t x);

    SweepKind recorded;
    uint32_t lineShift = 6;
    uint64_t ops = 0;
    std::vector<uint64_t> capLines;  //!< distinct rungs > 0, ascending
    std::vector<uint32_t> rungBand;  //!< caller rung → capLines index
    std::vector<Node> nodes;
    uint32_t head = kNil;
    uint32_t tail = kNil;
    std::vector<uint32_t> boundary;  //!< last node of each placed band
    std::vector<uint64_t> bandCount;  //!< reuses per band, R + 1 bands
    LineSlotMap map;                 //!< line → node index
    LineRunStreams runs;             //!< per-block RLE scratch
    uint64_t cold = 0;
    uint64_t total = 0;
    uint64_t lastLine = kNoLine;     //!< merges runs across blocks
};

} // namespace wcrt

#endif // WCRT_SIM_STACK_DISTANCE_HH
