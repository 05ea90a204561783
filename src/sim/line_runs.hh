/**
 * @file
 * Shared per-block cache-line reference machinery for the capacity
 * sinks.
 *
 * Both miss-ratio paths — the rung-laddered FootprintSweep and the
 * single-pass stack profiles — consume the same three reference
 * streams (instruction, data, unified) and both want them as
 * run-length-compressed line ids rather than raw ops: consecutive
 * accesses to the same line are guaranteed MRU hits in any LRU cache
 * and distance-zero reuses in any stack profile, so only run heads
 * need real work. This module owns the two block-level stages they
 * share: the AVX2-dispatched address→line-id shift and the one-pass
 * run-length compression of the three streams — or of just the one
 * stream a kind-scoped sink records, in which case the other two run
 * vectors stay empty and an instruction-only build never shifts a
 * memory address.
 */

#ifndef WCRT_SIM_LINE_RUNS_HH
#define WCRT_SIM_LINE_RUNS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/microop.hh"

namespace wcrt {

/** Which reference stream a miss-ratio curve describes. */
enum class SweepKind : uint8_t { Instruction, Data, Unified };

/** Every SweepKind, in enum order. */
inline constexpr SweepKind kSweepKinds[] = {
    SweepKind::Instruction, SweepKind::Data, SweepKind::Unified};

/** Kind name as the CLI flags spell it: instr / data / unified. */
const char *toString(SweepKind kind);

/**
 * Parse a kind name ("instr", "data", "unified").
 * @return false when the name matches no kind (`out` untouched).
 */
bool parseSweepKind(const std::string &name, SweepKind &out);

/**
 * One run-length-compressed reference: `count` back-to-back accesses
 * to `line`. Accesses 2..count re-touch the line while it is
 * necessarily still the most recently used line of the stream
 * (nothing intervened in this stream's access order), so every
 * consumer handles the head once and credits the tail — a guaranteed
 * hit in every cache rung, a distance-zero reuse in a stack profile.
 */
struct LineRun
{
    uint64_t line;
    uint32_t count;
    uint8_t write;
};

/**
 * Line-id precompute: out[i] = addrs[i] >> shift for every i, with an
 * AVX2 inner loop where the host supports it (runtime-dispatched; the
 * scalar tail/fallback is bit-identical).
 */
void shiftLines(const uint64_t *addrs, size_t count, uint32_t shift,
                uint64_t *out);

/**
 * Per-block builder of the RLE'd reference streams. Owns the line-id
 * scratch and run vectors so a sink reuses one instance across blocks
 * without reallocating in steady state.
 */
class LineRunStreams
{
  public:
    /**
     * Rebuild the streams from one block: instruction = every op's pc
     * line, data = the memory line of ops with an access, unified =
     * pc line then memory line per op (the exact order the per-op
     * path touches a unified cache).
     *
     * @param batch The block to compress.
     * @param line_shift log2(line size) for the address→line shift.
     * @param split_on_write When true a run breaks where the
     *        read/write sense changes (the sweep's repeat memos track
     *        dirty state per run); when false consecutive accesses to
     *        one line merge regardless of sense (a stack profile's
     *        LRU ordering is sense-blind).
     * @param only When set, fill just that stream: the other two come
     *        back empty, and the pc or memory lines the stream does
     *        not read are never shifted. When unset, fill all three.
     */
    void build(const OpBlockView &batch, uint32_t line_shift,
               bool split_on_write,
               std::optional<SweepKind> only = std::nullopt);

    /** One stream's runs. */
    const std::vector<LineRun> &
    stream(SweepKind kind) const
    {
        return kind == SweepKind::Instruction ? instrRuns
               : kind == SweepKind::Data      ? dataRuns
                                              : uniRuns;
    }

  private:
    std::vector<uint64_t> pcLines;  //!< per-block line-id scratch
    std::vector<uint64_t> memLines;
    std::vector<LineRun> instrRuns;
    std::vector<LineRun> dataRuns;
    std::vector<LineRun> uniRuns;
};

} // namespace wcrt

#endif // WCRT_SIM_LINE_RUNS_HH
