#include "sim/line_runs.hh"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define WCRT_LINE_RUNS_AVX2 1
#endif

namespace wcrt {

namespace {

void
shiftLinesScalar(const uint64_t *addrs, size_t begin, size_t end,
                 uint32_t shift, uint64_t *out)
{
    for (size_t i = begin; i < end; ++i)
        out[i] = addrs[i] >> shift;
}

#ifdef WCRT_LINE_RUNS_AVX2

/**
 * AVX2 line-id precompute: four 64-bit logical right shifts per
 * vector. Returns the index shifted up to; the caller finishes the
 * tail with shiftLinesScalar.
 */
__attribute__((target("avx2"))) size_t
shiftLinesAvx2(const uint64_t *addrs, size_t count, uint32_t shift,
               uint64_t *out)
{
    const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shift));
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(addrs + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_srl_epi64(v, sh));
    }
    return i;
}

bool
haveAvx2()
{
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
}

#endif // WCRT_LINE_RUNS_AVX2

/** Append one access to a stream, extending its last run if it can. */
inline void
extendRun(std::vector<LineRun> &runs, uint64_t line, bool w,
          bool split_on_write)
{
    if (!runs.empty()) {
        LineRun &back = runs.back();
        if (back.line == line &&
            (!split_on_write || (back.write != 0) == w)) {
            ++back.count;
            return;
        }
    }
    runs.push_back(LineRun{line, 1, static_cast<uint8_t>(w ? 1 : 0)});
}

/**
 * The RLE pass over one block, specialised at compile time on which
 * streams it fills so a single-stream build carries no dead work.
 */
template <bool kInstr, bool kData, bool kUni>
void
fillRuns(const OpBlockView &batch, const uint64_t *pc_lines,
         const uint64_t *mem_lines, bool split_on_write,
         std::vector<LineRun> &instr, std::vector<LineRun> &data,
         std::vector<LineRun> &uni)
{
    for (size_t i = 0; i < batch.count; ++i) {
        if constexpr (kInstr || kUni) {
            uint64_t pc_line = pc_lines[i];
            if constexpr (kInstr)
                extendRun(instr, pc_line, false, split_on_write);
            if constexpr (kUni)
                extendRun(uni, pc_line, false, split_on_write);
        }
        if constexpr (kData || kUni) {
            if (batch.memSizes[i] != 0) {
                bool is_write = batch.kinds[i] == OpKind::Store;
                uint64_t mem_line = mem_lines[i];
                if constexpr (kData)
                    extendRun(data, mem_line, is_write, split_on_write);
                if constexpr (kUni)
                    extendRun(uni, mem_line, is_write, split_on_write);
            }
        }
    }
}

} // namespace

const char *
toString(SweepKind kind)
{
    switch (kind) {
      case SweepKind::Instruction:
        return "instr";
      case SweepKind::Data:
        return "data";
      default:
        return "unified";
    }
}

bool
parseSweepKind(const std::string &name, SweepKind &out)
{
    for (SweepKind k : kSweepKinds) {
        if (name == toString(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

void
shiftLines(const uint64_t *addrs, size_t count, uint32_t shift,
           uint64_t *out)
{
    size_t i = 0;
#ifdef WCRT_LINE_RUNS_AVX2
    if (count >= 16 && haveAvx2())
        i = shiftLinesAvx2(addrs, count, shift, out);
#endif
    shiftLinesScalar(addrs, i, count, shift, out);
}

void
LineRunStreams::build(const OpBlockView &batch, uint32_t line_shift,
                      bool split_on_write, std::optional<SweepKind> only)
{
    const size_t count = batch.count;
    const bool need_pc = only != SweepKind::Data;
    const bool need_mem = only != SweepKind::Instruction;
    if (need_pc) {
        if (pcLines.size() < count)
            pcLines.resize(count);
        shiftLines(batch.pcs, count, line_shift, pcLines.data());
    }
    if (need_mem) {
        if (memLines.size() < count)
            memLines.resize(count);
        shiftLines(batch.memAddrs, count, line_shift, memLines.data());
    }

    instrRuns.clear();
    dataRuns.clear();
    uniRuns.clear();
    const uint64_t *pc = pcLines.data();
    const uint64_t *mem = memLines.data();
    if (!only) {
        fillRuns<true, true, true>(batch, pc, mem, split_on_write,
                                   instrRuns, dataRuns, uniRuns);
        return;
    }
    switch (*only) {
      case SweepKind::Instruction:
        fillRuns<true, false, false>(batch, pc, mem, split_on_write,
                                     instrRuns, dataRuns, uniRuns);
        break;
      case SweepKind::Data:
        fillRuns<false, true, false>(batch, pc, mem, split_on_write,
                                     instrRuns, dataRuns, uniRuns);
        break;
      case SweepKind::Unified:
        fillRuns<false, false, true>(batch, pc, mem, split_on_write,
                                     instrRuns, dataRuns, uniRuns);
        break;
    }
}

} // namespace wcrt
