#include "sim/footprint.hh"

#include "base/logging.hh"

namespace wcrt {

std::vector<uint32_t>
paperSweepSizesKb()
{
    return {16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192};
}

std::optional<uint32_t>
kneeCapacityKb(const std::vector<double> &curve,
               const std::vector<uint32_t> &sizes_kb)
{
    if (curve.empty() || curve.size() != sizes_kb.size())
        return std::nullopt;
    double floor_ratio = curve.back();
    // The last rung always satisfies the predicate against its own
    // floor, so only earlier rungs count as knees; a curve that first
    // enters the floor band at the final rung is still falling and
    // its knee lies beyond the ladder.
    for (size_t i = 0; i + 1 < curve.size(); ++i) {
        if (curve[i] <= floor_ratio * 1.15 + 1e-6)
            return sizes_kb[i];
    }
    return std::nullopt;
}

FootprintSweep::FootprintSweep(std::vector<uint32_t> sizes_kb,
                               uint32_t assoc, uint32_t line_bytes,
                               std::optional<SweepKind> only_kind)
    : sizes(std::move(sizes_kb)), only(only_kind)
{
    if (sizes.empty())
        wcrt_fatal("footprint sweep needs at least one capacity");
    for (SweepKind k : kSweepKinds) {
        if (!records(k))
            continue;
        Ladder &l = ladder(k);
        for (uint32_t kb : sizes)
            l.caches.emplace_back(CacheConfig{
                "sweep", static_cast<uint64_t>(kb) * 1024, assoc,
                line_bytes});
        l.memos.resize(sizes.size());
        // Every rung shares the line size, so one shift serves all of
        // them (the Cache constructor has already validated
        // power-of-two).
        lineShift = l.caches.front().lineShiftBits();
    }
}

void
FootprintSweep::consume(const MicroOp &op)
{
    // Per-op accesses bypass the repeat memos, so any memo built by a
    // preceding batch would go stale; forget it before touching the
    // caches directly.
    if (filtersLive)
        clearFilters();
    ++ops;
    // The rung caches are independent, so each stream's ladder takes
    // the op in turn; only the unified cache's pc-then-memory order
    // within one op matters.
    bool is_write = op.kind == OpKind::Store;
    for (Cache &c : ladder(SweepKind::Instruction).caches)
        c.access(op.pc, false);
    if (op.memSize > 0)
        for (Cache &c : ladder(SweepKind::Data).caches)
            c.access(op.memAddr, is_write);
    for (Cache &c : ladder(SweepKind::Unified).caches) {
        c.access(op.pc, false);
        if (op.memSize > 0)
            c.access(op.memAddr, is_write);
    }
}

void
FootprintSweep::clearFilters()
{
    for (Ladder &l : ladders) {
        for (RepeatSlots &f : l.memos) {
            f.valid[0] = 0;
            f.valid[1] = 0;
        }
    }
    filtersLive = false;
}

bool
FootprintSweep::repeatHit(const RepeatSlots &f, uint64_t line,
                          bool is_write)
{
    for (int s = 0; s < 2; ++s) {
        if (f.valid[s] && f.line[s] == line)
            return !is_write || f.dirty[s] != 0;
    }
    return false;
}

void
FootprintSweep::noteAccess(RepeatSlots &f, uint64_t line, uint32_t set,
                           bool is_write)
{
    int tgt = -1;
    for (int s = 0; s < 2; ++s) {
        if (f.valid[s] && f.set[s] == set) {
            tgt = s;
            break;
        }
    }
    if (tgt < 0) {
        tgt = !f.valid[0] ? 0 : (!f.valid[1] ? 1 : f.victim);
    }
    if (f.valid[tgt] && f.line[tgt] == line) {
        // Same line walked anyway (write on a clean line): the line's
        // dirty bit is set now.
        f.dirty[tgt] |= is_write ? 1 : 0;
    } else {
        f.line[tgt] = line;
        // Conservative: the line may have been dirty from an earlier
        // residency, but claiming clean only costs a skip, never
        // correctness.
        f.dirty[tgt] = is_write ? 1 : 0;
    }
    f.set[tgt] = set;
    f.valid[tgt] = 1;
    f.victim = static_cast<uint8_t>(tgt ^ 1);
}

void
FootprintSweep::sweepStream(Cache &cache, RepeatSlots &f,
                            const std::vector<LineRun> &runs)
{
    uint64_t credits = 0;
    for (const LineRun &r : runs) {
        bool is_write = r.write != 0;
        if (repeatHit(f, r.line, is_write)) {
            credits += r.count;
            continue;
        }
        cache.accessLine(r.line, is_write);
        noteAccess(f, r.line, cache.setOfLine(r.line), is_write);
        credits += r.count - 1;
    }
    cache.creditRepeatHits(credits);
}

void
FootprintSweep::consumeBatch(const OpBlockView &batch)
{
    const size_t count = batch.count;
    ops += count;
    if (count == 0)
        return;
    filtersLive = true;
    // Line-id precompute + run-length compression of the swept
    // reference streams, shared with the stack-distance profile
    // (sim/line_runs.hh), so every rung iterates runs instead of ops.
    // The pc stream is the big winner: sequential code re-touches
    // each line for many ops, and each re-touch is a guaranteed MRU
    // hit in every rung. Runs split on write sense so the repeat
    // memos can track dirty state per run.
    runs.build(batch, lineShift, /*split_on_write=*/true, only);
    for (size_t k = 0; k < sizes.size(); ++k) {
        for (SweepKind kind : kSweepKinds) {
            Ladder &l = ladder(kind);
            if (!l.caches.empty())
                sweepStream(l.caches[k], l.memos[k], runs.stream(kind));
        }
    }
}

std::vector<double>
FootprintSweep::missRatios(SweepKind kind) const
{
    if (!records(kind))
        wcrt_fatal("footprint sweep: asked for the ", toString(kind),
                   " stream, but it sweeps only the ", toString(*only),
                   " stream");
    std::vector<double> out;
    out.reserve(sizes.size());
    for (const Cache &c : ladder(kind).caches)
        out.push_back(c.missRatio());
    return out;
}

} // namespace wcrt
