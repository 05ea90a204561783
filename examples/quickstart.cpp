/**
 * @file
 * Quickstart: profile one big data workload on the Xeon E5645 model
 * and print the measurements the paper reports per workload.
 *
 * Usage: example_quickstart [workload-name] [scale]
 *   e.g. example_quickstart H-WordCount 0.25
 */

#include <iostream>

#include "base/flags.hh"
#include "base/table.hh"
#include "baselines/baselines.hh"
#include "core/profiler.hh"
#include "workloads/registry.hh"

using namespace wcrt;

namespace {

/** Look a name up among big data workloads and comparison baselines. */
WorkloadPtr
makeByName(const std::string &name, double scale)
{
    for (const auto &e : baselineWorkloads())
        if (e.name == name)
            return e.make(scale);
    return findWorkload(name).make(scale);
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string name = argc > 1 ? argv[1] : "H-WordCount";
    double scale =
        argc > 2 ? realArg("scale", argv[2], kMinScale, kMaxScale) : 0.25;

    WorkloadPtr workload = makeByName(name, scale);

    std::cout << "Profiling " << workload->name() << " ("
              << toString(workload->category()) << ", "
              << toString(workload->stack()) << " stack) at scale "
              << scale << " on the Xeon E5645 model...\n\n";

    WorkloadRun run = profileWorkload(*workload, xeonE5645());

    Table t({"metric", "value"});
    t.cell("instructions").cell(run.report.instructions).endRow();
    t.cell("IPC").cell(run.report.ipc, 2).endRow();
    t.cell("branch ratio").cell(run.report.branchRatio, 3).endRow();
    t.cell("integer ratio").cell(run.report.integerRatio, 3).endRow();
    t.cell("FP ratio").cell(run.report.fpRatio, 3).endRow();
    t.cell("load ratio").cell(run.report.loadRatio, 3).endRow();
    t.cell("store ratio").cell(run.report.storeRatio, 3).endRow();
    t.cell("data movement (+branch)")
        .cell(run.report.dataMovementWithBranchRatio, 3)
        .endRow();
    t.cell("L1I MPKI").cell(run.report.l1iMpki, 2).endRow();
    t.cell("L1D MPKI").cell(run.report.l1dMpki, 2).endRow();
    t.cell("L2 MPKI").cell(run.report.l2Mpki, 2).endRow();
    t.cell("L3 MPKI").cell(run.report.l3Mpki, 2).endRow();
    t.cell("ITLB MPKI").cell(run.report.itlbMpki, 3).endRow();
    t.cell("DTLB MPKI").cell(run.report.dtlbMpki, 3).endRow();
    t.cell("branch mispredict").cell(run.report.branchMispredictRatio, 4)
        .endRow();
    t.cell("frontend stall ratio")
        .cell(run.report.frontendStallRatio, 3)
        .endRow();
    t.cell("code footprint KB").cell(run.report.codeFootprintKb, 1)
        .endRow();
    t.cell("achieved GFLOPS").cell(run.report.gflops, 3).endRow();
    t.print(std::cout);

    const BranchStats &bs = run.report.branchStats;
    std::cout << "\nBranch detail: cond " << bs.conditionalMispredicts
              << "/" << bs.conditional << ", indirect "
              << bs.indirectMispredicts << "/" << bs.indirect
              << ", return " << bs.returnMispredicts << "/" << bs.returns
              << ", BTB misses " << bs.btbMisses << "\n";
    std::cout << "\nSystem behaviour: " << toString(run.sysBehavior)
              << " (CPU util " << formatFixed(
                     run.sysProfile.cpuUtilization * 100, 1)
              << "%, IO wait "
              << formatFixed(run.sysProfile.ioWaitRatio * 100, 1)
              << "%, weighted disk IO time ratio "
              << formatFixed(run.sysProfile.weightedDiskIoTimeRatio, 1)
              << ")\n";
    std::cout << "Data behaviour:   " << run.data.describe() << "\n";
    return 0;
} catch (const FlagError &err) {
    std::cerr << "example_quickstart: " << err.what() << "\n";
    return err.status;
}
