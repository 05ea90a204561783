/**
 * @file
 * Shared scaffolding for the per-figure/per-table bench binaries.
 *
 * Every bench runs some set of workloads through the Xeon E5645 model
 * and prints paper-style rows. The dataset scale is read from the
 * WCRT_SCALE environment variable (default 0.5) so a full bench sweep
 * stays laptop-fast while larger runs remain one variable away.
 *
 * Workload executions are recorded once into a trace cache (see
 * core/trace_cache.hh) and replayed from disk afterwards, in parallel
 * across workloads — so repeated bench runs and multi-figure sweeps
 * pay one capture per (workload, scale) instead of one execution per
 * figure. initBench() registers the shared flags a binary reads
 * (`--list`, `--filter`, `--trace-dir`, `--jobs`, and `--mrc-mode` on
 * the capacity-sweep figures 6-9); `--help` lists them.
 */

#ifndef WCRT_BENCH_BENCH_COMMON_HH
#define WCRT_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/flags.hh"
#include "base/summary.hh"
#include "base/table.hh"
#include "baselines/baselines.hh"
#include "core/profiler.hh"
#include "core/trace_cache.hh"
#include "tracefile/replay.hh"
#include "workloads/registry.hh"

namespace wcrt::bench {

/**
 * Which shared flags a bench binary registers. Passed to initBench();
 * any flag outside the mask is an unknown flag, so a `--trace-dir` on
 * a bench that generates live fails instead of looking honoured.
 */
enum BenchFlagUse : unsigned {
    kBenchUsesNone = 0,
    kBenchUsesFilter = 1u << 0,
    kBenchUsesTraceDir = 1u << 1,
    kBenchUsesJobs = 1u << 2,
    //! Deliberately outside kBenchUsesAll: only the capacity-sweep
    //! figures compute miss-ratio curves.
    kBenchUsesMrcMode = 1u << 3,
    kBenchUsesAll =
        kBenchUsesFilter | kBenchUsesTraceDir | kBenchUsesJobs,
};

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    std::string filter;    //!< substring filter on workload names
    bool list = false;     //!< print the roster and exit
    std::string traceDir;  //!< trace cache override ("" = default)
    unsigned jobs = 0;     //!< replay worker cap (0 = hardware)
    //! Miss-ratio-curve path for the sweep figures (--mrc-mode).
    MrcMode mrcMode = MrcMode::StackDistance;
    double scale = 0.5;    //!< dataset scale (WCRT_SCALE)
};

/** The options initBench() parsed. */
inline BenchOptions &
benchOptions()
{
    static BenchOptions options;
    return options;
}

/** Dataset scale for bench runs (WCRT_SCALE, default 0.5). */
inline double
benchScale()
{
    return benchOptions().scale;
}

/** Print every workload name the shared rosters offer. */
inline void
printRoster(std::ostream &os)
{
    os << "representative workloads:\n";
    for (const auto &e : representativeWorkloads())
        os << "  " << e.name << "\n";
    os << "MPI implementations:\n";
    for (const auto &e : mpiWorkloads())
        os << "  " << e.name << "\n";
    os << "baseline suites:\n";
    for (const auto &e : baselineWorkloads())
        os << "  " << e.name << " (" << toString(e.suite) << ")\n";
    os << "full roster: " << fullRoster().size() << " workloads\n";
}

/**
 * Parse the shared bench flags and WCRT_SCALE. Call first in every
 * main(); `--list` and `--help` print and exit here, and a bad value
 * or unknown flag exits with the FlagError status.
 *
 * @param uses BenchFlagUse mask of the flags this binary registers.
 */
inline void
initBench(int argc, char **argv, unsigned uses = kBenchUsesAll)
{
    BenchOptions &opt = benchOptions();
    const std::pair<unsigned, Flag> shared[] = {
        {0, switchFlag("list", opt.list, "print the roster and exit")},
        {kBenchUsesFilter,
         textFlag("filter", opt.filter, "SUBSTR",
                  "run only workloads whose name contains SUBSTR")},
        {kBenchUsesTraceDir,
         textFlag("trace-dir", opt.traceDir, "DIR",
                  "trace cache (default: WCRT_TRACE_DIR or a temp dir)")},
        {kBenchUsesJobs, countFlag("jobs", opt.jobs, 0, kMaxJobs,
                                   "replay worker cap, 0 = hardware")},
        {kBenchUsesMrcMode,
         choiceFlag("mrc-mode", opt.mrcMode, parseMrcMode, "M",
                    "stack, oracle or verify", "miss-ratio-curve path")},
    };
    FlagCommand cmd;
    for (const auto &[bit, flag] : shared)
        if (!bit || (uses & bit))
            cmd.flags.push_back(flag);
    try {
        opt.scale = envScale();
        if (parseFlags({cmd}, {argv + 1, argv + argc}).help) {
            std::cout << flagHelp(argv[0], {cmd});
            std::exit(0);
        }
    } catch (const FlagError &err) {
        std::cerr << argv[0] << ": " << err.what() << "\n";
        std::exit(err.status);
    }
    if (opt.list) {
        printRoster(std::cout);
        std::exit(0);
    }
}

/** True when `name` passes the --filter option. */
inline bool
filterAllows(const std::string &name)
{
    const std::string &f = benchOptions().filter;
    return f.empty() || name.find(f) != std::string::npos;
}

/** The subset of `entries` passing --filter. */
inline std::vector<WorkloadEntry>
filtered(const std::vector<WorkloadEntry> &entries)
{
    std::vector<WorkloadEntry> out;
    for (const auto &e : entries)
        if (filterAllows(e.name))
            out.push_back(e);
    return out;
}

/** The bench process's trace cache (honours --trace-dir). */
inline TraceCache &
benchTraceCache()
{
    static TraceCache cache(benchOptions().traceDir);
    return cache;
}

/**
 * Record-once/replay-many profiling: ensure a cached trace per entry
 * (capturing serially on miss), then replay them against `machine` in
 * parallel. Results are indexed like `entries` and identical to live
 * profileWorkload() runs.
 */
inline std::vector<WorkloadRun>
profileEntriesCached(const std::vector<WorkloadEntry> &entries,
                     const MachineConfig &machine, double scale)
{
    TraceCache &cache = benchTraceCache();
    std::vector<std::string> paths;
    paths.reserve(entries.size());
    for (const auto &e : entries)
        paths.push_back(cache.ensure(
            e.name, scale, [&] { return e.make(scale); }));
    return profileTraces(paths, machine, {}, benchOptions().jobs);
}

/** Profile every representative workload on a machine. */
inline std::vector<WorkloadRun>
runRepresentatives(const MachineConfig &machine, double scale)
{
    return profileEntriesCached(filtered(representativeWorkloads()),
                                machine, scale);
}

/** Profile the six MPI implementations. */
inline std::vector<WorkloadRun>
runMpiSuite(const MachineConfig &machine, double scale)
{
    return profileEntriesCached(filtered(mpiWorkloads()), machine,
                                scale);
}

/** Profile the comparison suites; returns (suite label, run). */
inline std::vector<std::pair<std::string, WorkloadRun>>
runBaselines(const MachineConfig &machine, double scale)
{
    std::vector<BaselineEntry> entries;
    for (const auto &e : baselineWorkloads())
        if (filterAllows(e.name))
            entries.push_back(e);

    TraceCache &cache = benchTraceCache();
    std::vector<std::string> paths;
    paths.reserve(entries.size());
    for (const auto &e : entries)
        paths.push_back(cache.ensure(
            e.name, scale, [&] { return e.make(scale); }));
    auto profiled = profileTraces(paths, machine, {},
                                  benchOptions().jobs);

    std::vector<std::pair<std::string, WorkloadRun>> runs;
    runs.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i)
        runs.emplace_back(toString(entries[i].suite),
                          std::move(profiled[i]));
    return runs;
}

/** Average a field over a set of runs. */
template <typename Getter>
double
average(const std::vector<WorkloadRun> &runs, Getter &&get)
{
    Summary s;
    for (const auto &r : runs)
        s.add(get(r));
    return s.mean();
}

/** Average over the runs matching a category. */
template <typename Getter>
double
averageByCategory(const std::vector<WorkloadRun> &runs, AppCategory cat,
                  Getter &&get)
{
    Summary s;
    for (const auto &r : runs)
        if (r.category == cat)
            s.add(get(r));
    return s.mean();
}

/** Average over the runs matching a system behaviour class. */
template <typename Getter>
double
averageByBehavior(const std::vector<WorkloadRun> &runs,
                  SystemBehavior behavior, Getter &&get)
{
    Summary s;
    for (const auto &r : runs)
        if (r.sysBehavior == behavior)
            s.add(get(r));
    return s.mean();
}

} // namespace wcrt::bench

#endif // WCRT_BENCH_BENCH_COMMON_HH
