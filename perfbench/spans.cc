#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <utility>

namespace wcrt::perfbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int64_t
SpanLog::begin(const std::string &name, int64_t parent, int64_t task)
{
    int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mtx);
    recorded.push_back({name, start, start, parent, task});
    return static_cast<int64_t>(recorded.size()) - 1;
}

void
SpanLog::end(int64_t id)
{
    int64_t stop = nowNs();
    std::lock_guard<std::mutex> lock(mtx);
    recorded[static_cast<size_t>(id)].endNs = stop;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return recorded;
}

void
SpanLog::write(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mtx);
    out << "id\tparent\ttask\tname\tstart_ns\tend_ns\n";
    for (size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        out << i << '\t' << s.parent << '\t' << s.task << '\t' << s.name
            << '\t' << s.startNs << '\t' << s.endNs << '\n';
    }
}

std::map<std::string, NameTimes>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[static_cast<size_t>(s.parent)];
        int64_t lo = std::max(s.startNs, p.startNs);
        int64_t hi = std::min(s.endNs, p.endNs);
        if (lo < hi)
            children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }

    std::map<std::string, NameTimes> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t runLo = 0;
        int64_t runHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            if (open && lo <= runHi) {
                runHi = std::max(runHi, hi);
                continue;
            }
            if (open)
                covered += runHi - runLo;
            runLo = lo;
            runHi = hi;
            open = true;
        }
        if (open)
            covered += runHi - runLo;

        const Span &s = spans[i];
        double duration = static_cast<double>(s.endNs - s.startNs);
        NameTimes &t = out[s.name];
        t.totalNs += duration;
        t.selfNs += duration - static_cast<double>(covered);
    }
    return out;
}

} // namespace wcrt::perfbench
