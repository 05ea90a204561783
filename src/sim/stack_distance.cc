#include "sim/stack_distance.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"
#include "base/worker_pool.hh"

namespace wcrt {

namespace {

/** splitmix64 finalizer: line ids are near-sequential, spread them. */
uint64_t
mixLine(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Initial open-addressing capacity (power of two). */
constexpr size_t kInitialMapSlots = 1 << 10;

/** Fatal unless `line_bytes` is a power of two; its log2 otherwise. */
uint32_t
lineShiftOf(uint32_t line_bytes)
{
    if (line_bytes == 0 || !std::has_single_bit(line_bytes))
        wcrt_fatal("stack-distance profile: line size must be a power "
                   "of two, got ", line_bytes);
    return static_cast<uint32_t>(std::countr_zero(line_bytes));
}

} // namespace

void
LineSlotMap::init()
{
    keys.assign(kInitialMapSlots, kEmptyKey);
    vals.assign(kInitialMapSlots, 0);
    live = 0;
}

size_t
LineSlotMap::probe(uint64_t line) const
{
    size_t mask = keys.size() - 1;
    size_t i = mixLine(line) & mask;
    while (keys[i] != kEmptyKey && keys[i] != line)
        i = (i + 1) & mask;
    return i;
}

void
LineSlotMap::insert(size_t slot, uint64_t line, uint64_t val)
{
    keys[slot] = line;
    vals[slot] = val;
    ++live;
    // Rehash at 70% load; linear probing degrades sharply past that.
    if (live * 10 < keys.size() * 7)
        return;
    std::vector<uint64_t> old_keys = std::move(keys);
    std::vector<uint64_t> old_vals = std::move(vals);
    keys.assign(old_keys.size() * 2, kEmptyKey);
    vals.assign(old_vals.size() * 2, 0);
    size_t mask = keys.size() - 1;
    for (size_t j = 0; j < old_keys.size(); ++j) {
        if (old_keys[j] == kEmptyKey)
            continue;
        size_t i = mixLine(old_keys[j]) & mask;
        while (keys[i] != kEmptyKey)
            i = (i + 1) & mask;
        keys[i] = old_keys[j];
        vals[i] = old_vals[j];
    }
}

StackDistanceProfile::StackDistanceProfile(uint32_t line_bytes,
                                           unsigned workers,
                                           size_t initial_slots)
    : lineBytes(line_bytes), poolCap(workers)
{
    init(initial_slots);
}

StackDistanceProfile::StackDistanceProfile(SweepKind only_kind,
                                           uint32_t line_bytes,
                                           size_t initial_slots)
    : only(only_kind), lineBytes(line_bytes)
{
    init(initial_slots);
}

void
StackDistanceProfile::init(size_t initial_slots)
{
    lineShift = lineShiftOf(lineBytes);
    size_t slots = std::bit_ceil(std::max<size_t>(initial_slots, 16));
    // An unrecorded stream keeps no slot space or map at all.
    for (SweepKind k : kSweepKinds)
        if (records(k))
            stream(k).init(slots);
}

void
StackDistanceProfile::Stream::init(size_t slots)
{
    slotCap = slots;
    fenwick.assign(slotCap + 1, 0);
    map.init();
}

void
StackDistanceProfile::Stream::bump(uint64_t d, uint64_t n)
{
    if (d >= hist.size())
        hist.resize(std::max<size_t>(d + 1, hist.size() * 2), 0);
    hist[d] += n;
}

void
StackDistanceProfile::Stream::fenAdd(size_t slot, int64_t delta)
{
    for (size_t i = slot + 1; i <= slotCap; i += i & (~i + 1))
        fenwick[i] = static_cast<uint64_t>(
            static_cast<int64_t>(fenwick[i]) + delta);
}

uint64_t
StackDistanceProfile::Stream::fenPrefix(size_t slot) const
{
    uint64_t sum = 0;
    for (size_t i = slot + 1; i > 0; i -= i & (~i + 1))
        sum += fenwick[i];
    return sum;
}

void
StackDistanceProfile::Stream::compact()
{
    // Renumber the live slots densely, preserving their order — only
    // the relative order of last-access slots enters any rank query,
    // so every future distance is unchanged. Regrow the slot space to
    // keep at least half free: with >= slotCap/2 accesses between
    // compactions, the O(live log live) renumber amortizes to O(log)
    // per access.
    const size_t live = map.live;
    std::vector<uint64_t> order;
    order.reserve(live);
    for (size_t j = 0; j < map.keys.size(); ++j)
        if (map.keys[j] != LineSlotMap::kEmptyKey)
            order.push_back(map.vals[j]);
    std::sort(order.begin(), order.end());
    while (slotCap < 2 * (live + 1))
        slotCap *= 2;
    fenwick.assign(slotCap + 1, 0);
    for (size_t j = 0; j < map.keys.size(); ++j) {
        if (map.keys[j] == LineSlotMap::kEmptyKey)
            continue;
        size_t idx = static_cast<size_t>(
            std::lower_bound(order.begin(), order.end(), map.vals[j]) -
            order.begin());
        map.vals[j] = idx;
    }
    // O(n) Fenwick build over the dense prefix of set bits.
    for (size_t i = 1; i <= live; ++i)
        fenwick[i] = 1;
    for (size_t i = 1; i <= slotCap; ++i) {
        size_t parent = i + (i & (~i + 1));
        if (parent <= slotCap)
            fenwick[parent] += fenwick[i];
    }
    clock = live;
}

void
StackDistanceProfile::Stream::access(uint64_t line, uint32_t count)
{
    total += count;
    if (line == lastLine) {
        // The stream's previous run touched this line — every access
        // of this run reuses the stack's top entry at distance zero.
        bump(0, count);
        return;
    }
    lastLine = line;
    if (clock == slotCap)
        compact();
    size_t i = map.probe(line);
    if (map.keys[i] == LineSlotMap::kEmptyKey) {
        // First touch: compulsory miss at every capacity; the run's
        // tail re-touches the line at distance zero.
        ++cold;
        if (count > 1)
            bump(0, count - 1);
        fenAdd(clock, +1);
        map.insert(i, line, clock);
        ++clock;
    } else {
        // Reuse: the distance is the number of live lines whose
        // last-access slot is more recent than this line's — a rank
        // query against the Fenwick tree.
        uint64_t prev = map.vals[i];
        uint64_t d = map.live - fenPrefix(static_cast<size_t>(prev));
        bump(d, 1);
        if (count > 1)
            bump(0, count - 1);
        fenAdd(static_cast<size_t>(prev), -1);
        fenAdd(clock, +1);
        map.vals[i] = clock;
        ++clock;
    }
}

void
StackDistanceProfile::consume(const MicroOp &op)
{
    ++ops;
    uint64_t pc_line = op.pc >> lineShift;
    if (records(SweepKind::Instruction))
        stream(SweepKind::Instruction).access(pc_line, 1);
    if (records(SweepKind::Unified))
        stream(SweepKind::Unified).access(pc_line, 1);
    if (op.memSize > 0) {
        uint64_t mem_line = op.memAddr >> lineShift;
        if (records(SweepKind::Data))
            stream(SweepKind::Data).access(mem_line, 1);
        if (records(SweepKind::Unified))
            stream(SweepKind::Unified).access(mem_line, 1);
    }
}

void
StackDistanceProfile::consumeBatch(const OpBlockView &batch)
{
    ops += batch.count;
    if (batch.count == 0)
        return;
    // Distances are write-sense-blind, so runs merge across
    // read/write alternation (split_on_write = false) — maximal
    // compression, and the per-op order within each stream is
    // preserved exactly. A kind-scoped profile compresses only its
    // own stream.
    runs.build(batch, lineShift, /*split_on_write=*/false, only);
    auto walk = [&](SweepKind k) {
        Stream &st = stream(k);
        for (const LineRun &r : runs.stream(k))
            st.access(r.line, r.count);
    };
    if (only) {
        walk(*only);
    } else if (poolCap > 1) {
        WorkerPool::shared().runBounded(
            3, std::min(poolCap, 3u),
            [&](size_t s) { walk(kSweepKinds[s]); });
    } else {
        for (SweepKind k : kSweepKinds)
            walk(k);
    }
}

const StackDistanceProfile::Stream &
StackDistanceProfile::streamFor(SweepKind kind) const
{
    if (!records(kind))
        wcrt_fatal("stack-distance profile: asked for the ",
                   toString(kind), " stream, but it records only the ",
                   toString(*only), " stream");
    return streams[static_cast<size_t>(kind)];
}

std::vector<double>
StackDistanceProfile::missRatios(
    SweepKind kind, const std::vector<uint32_t> &sizes_kb) const
{
    const Stream &s = streamFor(kind);
    // One histogram walk serves every rung: sort the capacities (in
    // lines) and accumulate hits as the walk crosses each one.
    std::vector<std::pair<uint64_t, size_t>> caps;
    caps.reserve(sizes_kb.size());
    for (size_t i = 0; i < sizes_kb.size(); ++i) {
        uint64_t cap_lines =
            (static_cast<uint64_t>(sizes_kb[i]) * 1024) / lineBytes;
        caps.emplace_back(cap_lines, i);
    }
    std::sort(caps.begin(), caps.end());
    std::vector<double> out(sizes_kb.size(), 0.0);
    uint64_t hits = 0;
    size_t d = 0;
    for (const auto &[cap_lines, idx] : caps) {
        size_t limit = static_cast<size_t>(
            std::min<uint64_t>(cap_lines, s.hist.size()));
        for (; d < limit; ++d)
            hits += s.hist[d];
        uint64_t misses = s.total - hits;
        out[idx] = s.total ? static_cast<double>(misses) /
                                 static_cast<double>(s.total)
                           : 0.0;
    }
    return out;
}

uint64_t
StackDistanceProfile::accesses(SweepKind kind) const
{
    return streamFor(kind).total;
}

uint64_t
StackDistanceProfile::coldMisses(SweepKind kind) const
{
    return streamFor(kind).cold;
}

uint64_t
StackDistanceProfile::distinctLines(SweepKind kind) const
{
    return streamFor(kind).map.live;
}

const std::vector<uint64_t> &
StackDistanceProfile::histogram(SweepKind kind) const
{
    return streamFor(kind).hist;
}

LadderStackProfile::LadderStackProfile(SweepKind kind,
                                       const std::vector<uint32_t> &sizes_kb,
                                       uint32_t line_bytes)
    : recorded(kind), lineShift(lineShiftOf(line_bytes))
{
    // The bands follow the distinct non-zero capacities in ascending
    // order; each caller rung remembers which one it is. A rung below
    // one line holds nothing and keeps no band.
    std::vector<uint64_t> rung_lines;
    rung_lines.reserve(sizes_kb.size());
    for (uint32_t kb : sizes_kb)
        rung_lines.push_back(static_cast<uint64_t>(kb) * 1024 /
                             line_bytes);
    for (uint64_t lines : rung_lines)
        if (lines > 0)
            capLines.push_back(lines);
    std::sort(capLines.begin(), capLines.end());
    capLines.erase(std::unique(capLines.begin(), capLines.end()),
                   capLines.end());
    for (uint64_t lines : rung_lines)
        rungBand.push_back(
            lines == 0 ? kNil
                       : static_cast<uint32_t>(
                             std::lower_bound(capLines.begin(),
                                              capLines.end(), lines) -
                             capLines.begin()));
    boundary.reserve(capLines.size());
    bandCount.assign(capLines.size() + 1, 0);
    map.init();
}

void
LadderStackProfile::pushFront(uint32_t x)
{
    nodes[x].prev = kNil;
    nodes[x].next = head;
    if (head != kNil)
        nodes[head].prev = x;
    else
        tail = x;
    head = x;
}

void
LadderStackProfile::access(uint64_t line, uint32_t count)
{
    total += count;
    if (line == lastLine) {
        // The stream's previous run touched this line: every access
        // of this run reuses the stack's top entry, in band 0.
        bandCount[0] += count;
        return;
    }
    lastLine = line;
    // The run's tail re-touches the line at the top: band 0.
    bandCount[0] += count - 1;
    size_t slot = map.probe(line);
    if (map.keys[slot] == LineSlotMap::kEmptyKey) {
        // First touch: a compulsory miss at every rung. The line goes
        // on top, so every line below moves down one position and
        // each placed boundary node drops into the next band.
        if (nodes.size() == kNil)
            wcrt_fatal("ladder stack profile: more than ", kNil - 1,
                       " distinct lines");
        uint32_t x = static_cast<uint32_t>(nodes.size());
        nodes.push_back({kNil, kNil, 0});
        map.insert(slot, line, x);
        ++cold;
        pushFront(x);
        for (size_t k = 0; k < boundary.size(); ++k) {
            uint32_t n = boundary[k];
            nodes[n].band = static_cast<uint32_t>(k + 1);
            boundary[k] = nodes[n].prev;
        }
        // The stack just reached the next rung: its last node is
        // that rung's boundary.
        if (boundary.size() < capLines.size() &&
            nodes.size() == capLines[boundary.size()])
            boundary.push_back(tail);
        return;
    }
    // Reuse in band b: it hits every rung above b. Moving the line to
    // the top pushes the lines above it down one position, so the
    // boundary nodes of bands 0..b-1 each drop one band.
    uint32_t x = static_cast<uint32_t>(map.vals[slot]);
    uint32_t b = nodes[x].band;
    ++bandCount[b];
    Node &n = nodes[x];
    if (b < boundary.size() && boundary[b] == x)
        boundary[b] = n.prev;
    // x is never the head here: the head's line is lastLine.
    nodes[n.prev].next = n.next;
    if (n.next != kNil)
        nodes[n.next].prev = n.prev;
    else
        tail = n.prev;
    n.band = 0;
    pushFront(x);
    for (uint32_t k = 0; k < b; ++k) {
        uint32_t m = boundary[k];
        nodes[m].band = k + 1;
        boundary[k] = nodes[m].prev;
    }
}

void
LadderStackProfile::consume(const MicroOp &op)
{
    ++ops;
    if (recorded != SweepKind::Data)
        access(op.pc >> lineShift, 1);
    if (op.memSize > 0 && recorded != SweepKind::Instruction)
        access(op.memAddr >> lineShift, 1);
}

void
LadderStackProfile::consumeBatch(const OpBlockView &batch)
{
    ops += batch.count;
    if (batch.count == 0)
        return;
    // Sense-blind runs of the one recorded stream, as the Fenwick
    // profile builds them.
    runs.build(batch, lineShift, /*split_on_write=*/false, recorded);
    for (const LineRun &r : runs.stream(recorded))
        access(r.line, r.count);
}

std::vector<double>
LadderStackProfile::missRatios() const
{
    // Reuses below rung k are the bands up to k, accumulated in
    // ascending-capacity order.
    std::vector<uint64_t> hits(capLines.size());
    uint64_t sum = 0;
    for (size_t k = 0; k < hits.size(); ++k)
        hits[k] = sum += bandCount[k];
    std::vector<double> out(rungBand.size(), 0.0);
    for (size_t i = 0; i < out.size(); ++i) {
        uint64_t misses =
            total - (rungBand[i] == kNil ? 0 : hits[rungBand[i]]);
        out[i] = total ? static_cast<double>(misses) /
                             static_cast<double>(total)
                       : 0.0;
    }
    return out;
}

} // namespace wcrt
