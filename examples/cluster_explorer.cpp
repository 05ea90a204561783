/**
 * @file
 * Scenario: "my benchmark suite is too big" — use the WCRT analyzer
 * to subset a custom workload list, exactly what the paper did to
 * take BigDataBench from 77 workloads to 17.
 *
 * Pass workload names (from the roster) as arguments, or run without
 * arguments for a ready-made mixed set. The tool profiles each
 * workload, clusters them in PCA space and tells you which ones you
 * actually need to run.
 *
 * Usage: example_cluster_explorer [k] [workload ...]
 */

#include <iostream>

#include "base/flags.hh"
#include "base/table.hh"
#include "core/analyzer.hh"
#include "core/profiler.hh"
#include "workloads/registry.hh"

using namespace wcrt;

int
main(int argc, char **argv)
try {
    std::vector<std::string> names;
    if (argc > 2) {
        for (int i = 2; i < argc; ++i)
            names.push_back(argv[i]);
    } else {
        names = {"H-WordCount@wiki", "S-WordCount@wiki",
                 "M-WordCount@wiki", "H-Sort@wiki",   "S-Sort@wiki",
                 "M-Sort@wiki",      "H-Grep@wiki",   "S-Grep@wiki",
                 "M-Grep@wiki",      "I-SelectQuery", "I-OrderBy",
                 "H-TPC-DS-query3",  "S-Kmeans",      "S-PageRank",
                 "H-Read"};
    }
    size_t k = argc > 1 ? countArg("k", argv[1], 1, names.size()) : 5;

    std::cout << "Profiling " << names.size()
              << " workloads (45 metrics each)...\n";
    std::vector<MetricVector> metrics;
    for (const auto &name : names) {
        WorkloadPtr w = findWorkload(name).make(0.3);
        metrics.push_back(profileWorkload(*w, xeonE5645()).metrics);
        std::cout << "  " << name << "\n";
    }

    AnalyzerOptions opts;
    opts.clusters = k;
    SubsetReport report = reduceWorkloads(names, metrics, opts);

    std::cout << "\nPCA kept " << report.retainedComponents
              << " components ("
              << formatFixed(report.explainedVariance * 100, 1)
              << "% variance); silhouette "
              << formatFixed(report.silhouetteScore, 3) << "\n\n";

    Table t({"cluster", "run this one", "and it covers"});
    for (const auto &c : report.clusters) {
        std::string covered;
        for (const auto &m : c.members) {
            if (m == c.representative)
                continue;
            if (!covered.empty())
                covered += ", ";
            covered += m;
        }
        if (covered.empty())
            covered = "(only itself)";
        t.cell(static_cast<uint64_t>(c.id + 1))
            .cell(c.representative)
            .cell(covered);
        t.endRow();
    }
    t.print(std::cout);
    std::cout << "\nBenchmarking cost: " << names.size()
              << " workloads -> " << k << " representatives.\n";
    return 0;
} catch (const FlagError &err) {
    std::cerr << "example_cluster_explorer: " << err.what() << "\n";
    return err.status;
}
