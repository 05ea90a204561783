/**
 * @file
 * perfbench_driver: the repository benchmark.
 *
 * One workload per run. Set-up captures the workload's roster cold
 * into an empty run-private trace directory (several times; the
 * median is setup_s). The timed phase then runs the warm pipeline a
 * paper figure uses, pass after pass, until the requested seconds are
 * spent, and checks every pass's outputs. With --trace 1 the passes
 * alternate between the plain pipeline and a decomposed copy that
 * times each call into a layer as a span, and the run reports
 * per-layer self time instead of the end-to-end metrics.
 *
 * Usage:
 *   perfbench_driver --workload reduce77|mrc|mix --seed N
 *       --seconds S --trace 0|1
 *
 * Run it from the root of a checkout: it reads the stored digests from
 * perfbench/reference_digests.txt and writes under .perfbench/.
 *
 * The last line on stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * The process exits 0 only when every task passed its checks.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.hh"
#include "core/profiler.hh"
#include "core/trace_cache.hh"
#include "digest.hh"
#include "rosters.hh"
#include "sim/machine.hh"
#include "sim/sim_cpu.hh"
#include "sim/stack_distance.hh"
#include "spans.hh"
#include "trace/mix_counter.hh"
#include "trace/sampling.hh"
#include "tracefile/capture.hh"
#include "tracefile/replay.hh"
#include "tracefile/trace_reader.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace wcrt;
using namespace wcrt::perfbench;

namespace {

/** Executor cap for every pooled call; recorded in the output. */
constexpr unsigned kWorkerCap = 2;

/** Fewest timed passes a run makes, however short --seconds is. */
constexpr int kMinPasses = 3;

/** Fewest traced passes a --trace 1 run makes. */
constexpr int kMinTracedPasses = 2;

/**
 * Set-up repeats until it has run kMinSetups times and spent
 * kSetupSeconds, at most kMaxSetups times, so a cheap roster's
 * median rests on more samples.
 */
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 8.0;

struct Options
{
    std::string workload;
    uint64_t seed = kReferenceSeed;
    double seconds = 10.0;
    bool trace = false;
};

/** Stored digests, relative to the checkout root. */
const char *const kReferenceFile = "perfbench/reference_digests.txt";

/** Run outputs and the run-private trace directory go under here. */
const char *const kOutDir = ".perfbench";

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload reduce77|mrc|mix"
                 " --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage(flag + " wants a whole number, got '" + text + "'");
    return v;
}

double
parsePositive(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(v > 0.0) || v > 1e6)
        usage(flag + " wants a positive number, got '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseCount(flag, value);
        } else if (flag == "--seconds") {
            opt.seconds = parsePositive(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            opt.trace = value == "1";
        } else {
            usage("unknown flag " + flag);
        }
    }
    return opt;
}

double
wallS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of the whole process, all threads. */
double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Attempted and failed task counts; a failure names itself. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
    }
};

/** One captured roster entry. */
struct Captured
{
    std::string name;
    std::string path;
    uint64_t ops = 0;
    uint64_t bytes = 0;
};

/** Counts a traced pass gathers at the layer boundaries. */
struct LayerCounts
{
    uint64_t replayedOps = 0;  //!< ops decoded by TraceReader
    uint64_t simCpuOps = 0;
    uint64_t stackDistanceOps = 0;
    uint64_t mixOps = 0;
    uint64_t crcChecks = 0;
    uint64_t stackDistanceLines = 0;  //!< largest profile's lines
};

/** What one pass produced. */
struct PassResult
{
    double wallS = 0.0;
    double cpuS = 0.0;
    uint64_t sinkOps = 0;  //!< ops pushed through the pipeline's sinks
    Digest digest;
};

/** The context one pass runs in; `log` is null for untraced passes. */
struct PassContext
{
    const std::vector<Captured> &traces;
    Tally &tally;
    SpanLog *log = nullptr;
    int64_t root = -1;
    LayerCounts *counts = nullptr;
};

/**
 * Checks one finished replay: decoded, footer and captured op counts
 * agree, and every chunk's CRC was verified. Returns what is wrong,
 * empty when nothing is.
 */
std::string
replayError(const Captured &c, const TraceReader &reader, uint64_t decoded)
{
    if (decoded != reader.opCount() || decoded != c.ops)
        return "decoded " + std::to_string(decoded) + " ops, footer " +
               std::to_string(reader.opCount()) + ", captured " +
               std::to_string(c.ops);
    if (reader.chunkCrcChecks() != reader.chunkCount())
        return std::to_string(reader.chunkCrcChecks()) +
               " CRC checks for " + std::to_string(reader.chunkCount()) +
               " chunks";
    return "";
}

// ---------------------------------------------------------------------
// reduce77: profileTraces on xeonE5645(), then reduceWorkloads(k=17).
// ---------------------------------------------------------------------

void
passReduce77(PassContext &ctx, PassResult &out)
{
    const auto &traces = ctx.traces;
    std::vector<std::string> names, paths;
    for (const auto &c : traces) {
        names.push_back(c.name);
        paths.push_back(c.path);
    }
    const MachineConfig machine = xeonE5645();
    std::vector<MetricVector> metrics(traces.size());
    std::vector<uint64_t> instructions(traces.size(), 0);

    if (!ctx.log) {
        std::vector<WorkloadRun> runs;
        try {
            runs = profileTraces(paths, machine, {}, kWorkerCap);
        } catch (const std::exception &e) {
            for (const auto &c : traces)
                ctx.tally.check(false, c.name + ": " + e.what());
            return;
        }
        for (size_t i = 0; i < runs.size(); ++i) {
            metrics[i] = runs[i].metrics;
            instructions[i] = runs[i].report.instructions;
            ctx.tally.check(instructions[i] == traces[i].ops,
                            traces[i].name + ": simulated " +
                                std::to_string(instructions[i]) +
                                " instructions, captured " +
                                std::to_string(traces[i].ops));
        }
    } else {
        // profileTraces() decomposed: the same parallelFor over the
        // same per-trace work, with SimCpu behind a timing wrapper.
        std::vector<LayerCounts> per(traces.size());
        std::vector<std::string> errors(traces.size());
        parallelFor(traces.size(), [&](size_t i) {
            auto task = static_cast<int64_t>(i);
            ScopedSpan span(*ctx.log, "core.profile", ctx.root, task);
            try {
                SimCpu cpu(machine);
                {
                    ScopedSpan rs(*ctx.log, "tracefile.replay",
                                  span.id(), task);
                    TraceReader reader(traces[i].path);
                    TimedSink timed(cpu, *ctx.log, "sim.cpu", rs.id(),
                                    task);
                    uint64_t decoded = reader.replayInto(timed);
                    errors[i] = replayError(traces[i], reader, decoded);
                    per[i].replayedOps = decoded;
                    per[i].simCpuOps = timed.ops();
                    per[i].crcChecks = reader.chunkCrcChecks();
                }
                CpuReport report = cpu.report();
                instructions[i] = report.instructions;
                metrics[i] = toMetricVector(report);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        }, kWorkerCap);
        for (size_t i = 0; i < traces.size(); ++i) {
            ctx.tally.check(errors[i].empty() &&
                                instructions[i] == traces[i].ops,
                            traces[i].name + ": " + errors[i] +
                                " simulated " +
                                std::to_string(instructions[i]) +
                                " instructions, captured " +
                                std::to_string(traces[i].ops));
            ctx.counts->replayedOps += per[i].replayedOps;
            ctx.counts->simCpuOps += per[i].simCpuOps;
            ctx.counts->crcChecks += per[i].crcChecks;
        }
    }

    AnalyzerOptions opts;
    opts.clusters = 17;
    SubsetReport report;
    bool reduced = true;
    std::string error;
    try {
        std::optional<ScopedSpan> span;
        if (ctx.log)
            span.emplace(*ctx.log, "core.analyzer", ctx.root, -1);
        report = reduceWorkloads(names, metrics, opts);
    } catch (const std::exception &e) {
        reduced = false;
        error = e.what();
    }
    size_t nonEmpty = 0;
    for (const auto &c : report.clusters)
        nonEmpty += c.members.empty() ? 0 : 1;
    ctx.tally.check(reduced && report.clusters.size() == 17 &&
                        nonEmpty == 17,
                    "reduceWorkloads: " + error + " " +
                        std::to_string(nonEmpty) + " non-empty of " +
                        std::to_string(report.clusters.size()) +
                        " clusters, want 17");

    Digest &d = out.digest;
    for (size_t i = 0; i < traces.size(); ++i) {
        out.sinkOps += instructions[i];
        d.add(names[i] + ".instructions", instructions[i]);
        for (size_t m = 0; m < numMetrics; ++m)
            d.add(names[i] + ".m" + std::to_string(m), metrics[i][m]);
    }
    d.add("pca.components",
          static_cast<uint64_t>(report.retainedComponents));
    d.add("pca.explained", report.explainedVariance);
    d.add("kmeans.silhouette", report.silhouetteScore);
    d.add("kmeans.wcss", report.wcss);
    for (const auto &c : report.clusters) {
        std::string members;
        for (const auto &m : c.members)
            members += m + ",";
        d.add("cluster" + std::to_string(c.id) + ".representative",
              c.representative);
        d.add("cluster" + std::to_string(c.id) + ".members", members);
    }
}

// ---------------------------------------------------------------------
// mrc: replaySweepLadder(..., StackDistance) per kind, Figures 6-8.
// ---------------------------------------------------------------------

void
passMrc(PassContext &ctx, PassResult &out)
{
    const std::vector<uint32_t> sizes = paperSweepSizesKb();
    const std::pair<SweepKind, const char *> kinds[] = {
        {SweepKind::Instruction, "instr"},
        {SweepKind::Data, "data"},
        {SweepKind::Unified, "unified"},
    };
    int64_t task = 0;
    for (const auto &c : ctx.traces) {
        for (auto [kind, kname] : kinds) {
            std::vector<double> ratios;
            std::string error;
            try {
                if (!ctx.log) {
                    ratios = replaySweepLadder(c.path, kind, sizes,
                                               MrcMode::StackDistance,
                                               kWorkerCap)
                                 .ratios;
                } else {
                    // replaySweepLadder(StackDistance) decomposed: the
                    // same profile, executor cap and single decode.
                    StackDistanceProfile profile(
                        64, kWorkerCap > 1 ? kWorkerCap : 0);
                    {
                        ScopedSpan rs(*ctx.log, "tracefile.replay",
                                      ctx.root, task);
                        TraceReader reader(c.path);
                        TimedSink timed(profile, *ctx.log,
                                        "sim.stack_distance", rs.id(),
                                        task);
                        uint64_t decoded = reader.replayInto(timed);
                        error = replayError(c, reader, decoded);
                        ctx.counts->replayedOps += decoded;
                        ctx.counts->crcChecks += reader.chunkCrcChecks();
                        ctx.counts->stackDistanceOps += timed.ops();
                    }
                    ScopedSpan ms(*ctx.log, "sim.stack_distance", ctx.root,
                                  task);
                    ratios = profile.missRatios(kind, sizes);
                    uint64_t lines = 0;
                    for (auto k : {SweepKind::Instruction, SweepKind::Data,
                                   SweepKind::Unified})
                        lines += profile.distinctLines(k);
                    ctx.counts->stackDistanceLines =
                        std::max(ctx.counts->stackDistanceLines, lines);
                }
            } catch (const std::exception &e) {
                error = e.what();
            }
            ++task;

            bool ok = error.empty() && ratios.size() == sizes.size();
            for (size_t i = 0; ok && i < ratios.size(); ++i) {
                ok = ratios[i] >= 0.0 && ratios[i] <= 1.0 &&
                     (i == 0 || ratios[i] <= ratios[i - 1]);
            }
            ctx.tally.check(ok, c.name + " " + kname + " curve: " +
                                    (error.empty() ? "out of [0,1] or "
                                                     "rising with capacity"
                                                   : error));
            out.sinkOps += c.ops;
            for (size_t i = 0; i < ratios.size(); ++i)
                out.digest.add(c.name + "." + kname + "." +
                                   std::to_string(sizes[i]) + "KB",
                               ratios[i]);
        }
    }
}

// ---------------------------------------------------------------------
// mix: the trace_tool stats path, one MixCounter per trace.
// ---------------------------------------------------------------------

void
passMix(PassContext &ctx, PassResult &out)
{
    int64_t task = 0;
    for (const auto &c : ctx.traces) {
        MixCounter mix;
        std::string error;
        try {
            if (!ctx.log) {
                TraceReader reader(c.path);
                uint64_t decoded = reader.replayInto(mix);
                error = replayError(c, reader, decoded);
            } else {
                ScopedSpan rs(*ctx.log, "tracefile.replay", ctx.root, task);
                TraceReader reader(c.path);
                TimedSink timed(mix, *ctx.log, "trace.mix", rs.id(), task);
                uint64_t decoded = reader.replayInto(timed);
                error = replayError(c, reader, decoded);
                ctx.counts->replayedOps += decoded;
                ctx.counts->crcChecks += reader.chunkCrcChecks();
                ctx.counts->mixOps += timed.ops();
            }
        } catch (const std::exception &e) {
            error = e.what();
        }
        ++task;
        ctx.tally.check(error.empty() && mix.total() == c.ops,
                        c.name + ": mix total " +
                            std::to_string(mix.total()) + ", captured " +
                            std::to_string(c.ops) + " " + error);
        out.sinkOps += mix.total();
        Digest &d = out.digest;
        d.add(c.name + ".total", mix.total());
        for (size_t k = 0; k < numOpKinds; ++k)
            d.add(c.name + ".kind" + std::to_string(k),
                  mix.count(static_cast<OpKind>(k)));
        d.add(c.name + ".intAddressShare", mix.intAddressShare());
        d.add(c.name + ".fpAddressShare", mix.fpAddressShare());
        d.add(c.name + ".otherIntShare", mix.otherIntShare());
        d.add(c.name + ".dataMovement", mix.dataMovementRatio());
    }
}

/** One benchmark workload: a roster, its scale and its pipeline. */
struct BenchWorkload
{
    const char *name;
    double scale;  //!< default dataset scale
    std::vector<SeededEntry> (*roster)(uint64_t seed);
    void (*pass)(PassContext &ctx, PassResult &out);
};

const BenchWorkload kWorkloads[] = {
    {"reduce77", 0.05, fullRoster77, passReduce77},
    {"mrc", 0.05, mrcRoster, passMrc},
    {"mix", 0.25, representatives17, passMix},
};

PassResult
runPass(const BenchWorkload &w, PassContext &ctx)
{
    PassResult out;
    double t0 = wallS();
    double c0 = cpuS();
    {
        std::optional<ScopedSpan> root;
        if (ctx.log) {
            root.emplace(*ctx.log, "bench.pass", -1, -1);
            ctx.root = root->id();
        }
        w.pass(ctx, out);
    }
    out.wallS = wallS() - t0;
    out.cpuS = cpuS() - c0;
    return out;
}

/** Empties `dir`, creating it when missing. */
void
resetDir(const std::filesystem::path &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

/** Removes the run-private trace directory however the run ends. */
struct DirGuard
{
    std::filesystem::path dir;
    ~DirGuard()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

/**
 * Capture every roster entry into `dir`. With a span log, each entry
 * is first run through a counting sink so emission can be told
 * apart from encoding.
 */
std::vector<Captured>
captureRoster(const std::vector<SeededEntry> &roster, double scale,
              const std::filesystem::path &dir, Tally &tally,
              SpanLog *log)
{
    std::vector<Captured> out;
    TraceCache naming(dir.string());
    int64_t root = log ? log->begin("bench.setup", -1, -1) : -1;
    for (size_t i = 0; i < roster.size(); ++i) {
        const auto &e = roster[i];
        auto task = static_cast<int64_t>(i);
        Captured c;
        c.name = e.name;
        c.path = naming.path(e.name, scale);
        try {
            if (log) {
                ScopedSpan s(*log, "workloads.emit", root, task);
                WorkloadPtr w = e.make(scale);
                CountingSink counter;
                runThroughSink(*w, counter);
                c.ops = counter.ops();
            }
            std::optional<ScopedSpan> s;
            if (log)
                s.emplace(*log, "tracefile.capture", root, task);
            WorkloadPtr w = e.make(scale);
            CaptureResult r = captureTrace(*w, c.path, scale);
            s.reset();
            tally.check(!log || r.ops == c.ops,
                        e.name + ": emitted " + std::to_string(c.ops) +
                            " ops, captured " + std::to_string(r.ops));
            c.ops = r.ops;
            c.bytes = r.fileBytes;
        } catch (const std::exception &ex) {
            tally.check(false, e.name + ": capture: " + ex.what());
        }
        out.push_back(std::move(c));
    }
    if (log)
        log->end(root);
    return out;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Per-layer metrics from a traced run's spans and counts. */
std::vector<Metric>
layerMetrics(const std::vector<Span> &spans, const LayerCounts &counts,
             const std::vector<Captured> &traces, double cpuShare,
             double overhead)
{
    auto times = selfTimes(spans);
    auto self = [&](const char *n) { return times[n].selfNs; };
    auto total = [&](const char *n) { return times[n].totalNs; };
    auto perOp = [](double ns, uint64_t ops) {
        return ops ? ns / static_cast<double>(ops) : 0.0;
    };

    uint64_t capturedOps = 0;
    uint64_t capturedBytes = 0;
    for (const auto &c : traces) {
        capturedOps += c.ops;
        capturedBytes += c.bytes;
    }

    std::vector<double> tasks;
    double analyzer = 0.0;
    uint64_t passes = 0;
    for (const auto &s : spans) {
        double sec = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        if (s.name == "core.profile")
            tasks.push_back(sec);
        else if (s.name == "core.analyzer")
            analyzer += sec;
        else if (s.name == "bench.pass")
            ++passes;
    }
    std::sort(tasks.begin(), tasks.end());
    double perPass = passes ? 1.0 / static_cast<double>(passes) : 0.0;
    double passTotal = total("bench.pass");

    return {
        {"workloads.emit_ns_per_op",
         perOp(total("workloads.emit"), capturedOps), "ns/op"},
        {"tracefile.encode_ns_per_op",
         perOp(total("tracefile.capture") - total("workloads.emit"),
               capturedOps),
         "ns/op"},
        {"tracefile.bytes_per_op",
         perOp(static_cast<double>(capturedBytes), capturedOps), "B/op"},
        {"tracefile.decode_ns_per_op",
         perOp(self("tracefile.replay"), counts.replayedOps), "ns/op"},
        {"tracefile.crc_checks",
         static_cast<double>(counts.crcChecks) * perPass, "count"},
        {"trace.mix_ns_per_op", perOp(self("trace.mix"), counts.mixOps),
         "ns/op"},
        {"sim.cpu_ns_per_op", perOp(self("sim.cpu"), counts.simCpuOps),
         "ns/op"},
        {"sim.stack_distance_ns_per_op",
         perOp(self("sim.stack_distance"), counts.stackDistanceOps),
         "ns/op"},
        {"sim.stack_distance.lines",
         static_cast<double>(counts.stackDistanceLines), "count"},
        {"core.profile_task_s.p50", median(tasks), "s"},
        {"core.profile_task_s.max", tasks.empty() ? 0.0 : tasks.back(),
         "s"},
        {"core.analyzer_s", analyzer * perPass, "s"},
        {"base.pool_busy_share", cpuShare, "ratio"},
        {"bench.tracing_overhead", overhead, "ratio"},
        {"bench.unaccounted_share",
         passTotal > 0 ? self("bench.pass") / passTotal : 0.0, "ratio"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    const BenchWorkload *w = nullptr;
    for (const auto &cand : kWorkloads)
        if (opt.workload == cand.name)
            w = &cand;
    if (!w)
        usage("unknown workload '" + opt.workload + "'");
    std::string reference;
    {
        std::ifstream in(kReferenceFile);
        if (!in)
            usage(std::string("cannot read ") + kReferenceFile +
                  "; run from the checkout root");
        std::ostringstream text;
        text << in.rdbuf();
        reference = text.str();
    }
    const double scale = w->scale;
    const std::vector<SeededEntry> roster = w->roster(opt.seed);

    std::cout << "perfbench: workload=" << w->name << " seed=" << opt.seed
              << " scale=" << scale << " trace=" << (opt.trace ? 1 : 0)
              << " nproc=" << std::thread::hardware_concurrency()
              << " worker_cap=" << kWorkerCap
              << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\""
              << PERFBENCH_COMPILER << "\" roster=" << roster.size()
              << "\n";

    std::filesystem::create_directories(kOutDir);
    DirGuard guard{std::filesystem::path(kOutDir) /
                   ("run-" + std::string(w->name) + "-" +
                    std::to_string(::getpid()))};
    Tally tally;
    SpanLog log;
    SpanLog *traced = opt.trace ? &log : nullptr;

    // Set-up: cold captures into an emptied run-private directory.
    std::vector<double> setupTimes;
    std::vector<Captured> traces;
    double setupStart = wallS();
    for (int rep = 0; rep < (opt.trace ? 1 : kMaxSetups); ++rep) {
        if (rep >= kMinSetups && wallS() - setupStart >= kSetupSeconds)
            break;
        resetDir(guard.dir);
        double t0 = wallS();
        auto got = captureRoster(roster, scale, guard.dir, tally, traced);
        setupTimes.push_back(wallS() - t0);
        for (size_t i = 0; rep > 0 && i < got.size(); ++i)
            tally.check(got[i].ops == traces[i].ops &&
                            got[i].bytes == traces[i].bytes,
                        got[i].name + ": capture differs between set-ups");
        traces = std::move(got);
    }
    for (const auto &c : traces) {
        try {
            TraceReader reader(c.path);
            tally.check(reader.opCount() == c.ops &&
                            reader.fileBytes() == c.bytes,
                        c.name + ": footer disagrees with the capture");
        } catch (const std::exception &e) {
            tally.check(false, c.name + ": " + e.what());
        }
    }

    // Timed phase. The first pass warms the page cache and the pool;
    // it is checked like every other pass but not timed.
    uint64_t setupFailures = tally.failed;
    PassContext plain{traces, tally};
    std::vector<PassResult> timed, tracedPasses;
    LayerCounts counts;
    std::string firstDigest, digestText;
    double tracedCpu = 0.0;
    auto record = [&](PassResult r, std::vector<PassResult> &into) {
        std::string hex = r.digest.hex();
        if (firstDigest.empty()) {
            firstDigest = hex;
            digestText = r.digest.text();
        } else {
            tally.check(hex == firstDigest,
                        "pass digest " + hex + " differs from the first "
                        "pass's " + firstDigest);
        }
        into.push_back(std::move(r));
    };
    if (setupFailures == 0) {
        std::vector<PassResult> warm;
        record(runPass(*w, plain), warm);
        double start = wallS();
        while (true) {
            record(runPass(*w, plain), timed);
            if (opt.trace) {
                PassContext ctx{traces, tally, &log, -1, &counts};
                PassResult r = runPass(*w, ctx);
                tracedCpu += r.cpuS;
                record(std::move(r), tracedPasses);
            }
            bool enough = opt.trace
                              ? static_cast<int>(tracedPasses.size()) >=
                                    kMinTracedPasses
                              : static_cast<int>(timed.size()) >= kMinPasses;
            if (enough && wallS() - start >= opt.seconds)
                break;
        }
    }

    DigestCheck ref = checkDigest(reference, w->name, opt.seed,
                                  firstDigest);
    if (!firstDigest.empty()) {
        tally.check(digestAccepted(ref, opt.seed),
                    std::string("digest ") + firstDigest +
                        (ref == DigestCheck::NoReference
                             ? " has no stored reference"
                             : " does not match the stored reference") +
                        " for " + w->name + " seed " +
                        std::to_string(opt.seed));
        std::ofstream(std::filesystem::path(kOutDir) /
                      ("digest-" + std::string(w->name) + "-seed" +
                       std::to_string(opt.seed) + ".txt"))
            << digestText;
    }
    std::cout << "perfbench: digest=" << firstDigest << " reference="
              << (ref == DigestCheck::Match
                      ? "match"
                      : ref == DigestCheck::Mismatch ? "MISMATCH" : "none")
              << " passes=" << timed.size()
              << " traced_passes=" << tracedPasses.size() << "\n";

    std::vector<Metric> metrics;
    if (!opt.trace) {
        std::vector<double> mops, cpu;
        for (const auto &p : timed) {
            mops.push_back(static_cast<double>(p.sinkOps) / p.wallS * 1e-6);
            cpu.push_back(p.cpuS);
            std::cout << "pass wall_s=" << exactText(p.wallS)
                      << " cpu_s=" << exactText(p.cpuS)
                      << " mops_per_s=" << exactText(mops.back()) << "\n";
        }
        for (double s : setupTimes)
            std::cout << "setup wall_s=" << exactText(s) << "\n";
        double ok = tally.attempted
                        ? static_cast<double>(tally.attempted -
                                              tally.failed) /
                              static_cast<double>(tally.attempted)
                        : 0.0;
        metrics = {
            {"mops_per_s", median(mops), "Mops/s"},
            {"setup_s", median(setupTimes), "s"},
            {"cpu_s", median(cpu), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"task_ok_ratio", ok, "ratio"},
        };
    } else {
        std::vector<double> plainWall, tracedWall;
        double tracedWallSum = 0.0;
        for (const auto &p : timed)
            plainWall.push_back(p.wallS);
        for (const auto &p : tracedPasses) {
            tracedWall.push_back(p.wallS);
            tracedWallSum += p.wallS;
        }
        double overhead = median(plainWall) > 0
                              ? median(tracedWall) / median(plainWall) - 1.0
                              : 0.0;
        double busy = tracedWallSum > 0
                          ? tracedCpu / (tracedWallSum * kWorkerCap)
                          : 0.0;
        metrics = layerMetrics(log.spans(), counts, traces, busy, overhead);
        // Where a traced pass spends its time: each layer's self time
        // as a share of the summed pass wall. Pooled tasks run on up to
        // kWorkerCap threads, so the shares can sum to more than 1.
        auto times = selfTimes(log.spans());
        double passWall = times["bench.pass"].totalNs;
        for (const char *layer :
             {"bench.pass", "core.profile", "tracefile.replay", "sim.cpu",
              "sim.stack_distance", "trace.mix", "core.analyzer"})
            std::cout << "layer " << layer << " self_share="
                      << exactText(passWall > 0
                                       ? times[layer].selfNs / passWall
                                       : 0.0)
                      << "\n";
        std::ofstream out(std::filesystem::path(kOutDir) /
                          ("spans-" + std::string(w->name) + "-seed" +
                           std::to_string(opt.seed) + ".tsv"));
        log.write(out);
    }

    for (const auto &m : metrics)
        std::cout << "metric " << m.name << " = " << exactText(m.value)
                  << " " << m.unit << "\n";
    bool correct = tally.failed == 0 && tally.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << exactText(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
