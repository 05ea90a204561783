/**
 * @file
 * In-memory span tracing for the benchmark's traced run.
 *
 * A span is one timed call from the benchmark driver into a layer:
 * name, start, end, the span that caused it and the task it belongs
 * to. Spans are kept in memory while the run measures and written out
 * when it ends. A layer's self time is its spans' durations minus the
 * part of each interval that child spans cover; children that run in
 * parallel on other threads are counted once, as the union of their
 * intervals.
 */

#ifndef WCRT_PERFBENCH_SPANS_HH
#define WCRT_PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "trace/microop.hh"

namespace wcrt::perfbench {

/** One recorded span; times are steady-clock nanoseconds. */
struct Span
{
    std::string name;     //!< "<layer>.<what>", e.g. "sim.cpu"
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1;  //!< index of the causing span, -1 for a root
    int64_t task = -1;    //!< task id shared by one task's spans
};

/** Thread-safe append-only span store. */
class SpanLog
{
  public:
    /** Open a span now; returns its id for end() and for children. */
    int64_t begin(const std::string &name, int64_t parent, int64_t task);

    /** Close span `id` now. */
    void end(int64_t id);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** One tab-separated line per span, with a header line. */
    void write(std::ostream &out) const;

  private:
    mutable std::mutex mtx;
    std::vector<Span> recorded;  //!< guarded by mtx
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int64_t parent,
               int64_t task)
        : log(log), spanId(log.begin(name, parent, task))
    {
    }
    ~ScopedSpan() { log.end(spanId); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return spanId; }

  private:
    SpanLog &log;
    int64_t spanId;
};

/** Summed span time per span name. */
struct NameTimes
{
    double totalNs = 0.0;  //!< summed durations
    double selfNs = 0.0;   //!< summed durations minus child cover
};

/**
 * Self time per span name. A span's self time is its duration minus
 * the length of the union of its children's intervals, each clipped
 * to the span's own interval.
 */
std::map<std::string, NameTimes> selfTimes(const std::vector<Span> &spans);

/**
 * Forwarding sink that records one span per delivered block around
 * the wrapped sink, and counts the ops it delivered.
 */
class TimedSink : public TraceSink
{
  public:
    TimedSink(TraceSink &inner, SpanLog &log, std::string name,
              int64_t parent, int64_t task)
        : inner(inner), log(log), spanName(std::move(name)),
          parent(parent), task(task)
    {
    }

    void
    consume(const MicroOp &op) override
    {
        ScopedSpan s(log, spanName, parent, task);
        inner.consume(op);
        ++delivered;
    }

    void
    consumeBatch(const OpBlockView &ops) override
    {
        ScopedSpan s(log, spanName, parent, task);
        inner.consumeBatch(ops);
        delivered += ops.count;
    }

    void
    drain() override
    {
        ScopedSpan s(log, spanName, parent, task);
        inner.drain();
    }

    /** Ops delivered to the wrapped sink. */
    uint64_t ops() const { return delivered; }

  private:
    TraceSink &inner;
    SpanLog &log;
    std::string spanName;
    int64_t parent;
    int64_t task;
    uint64_t delivered = 0;
};

} // namespace wcrt::perfbench

#endif // WCRT_PERFBENCH_SPANS_HH
