/**
 * @file
 * `perf stat` for the simulated testbed: run any workload (big data
 * roster or comparison baseline) on any of the machine models and
 * print counters in the familiar perf layout — the closest analogue
 * of what the paper's profiler nodes collected.
 *
 * Usage: example_wcrt_stat [-m xeon|atom] [-s scale] <workload>
 *        example_wcrt_stat --list
 */

#include <cstring>
#include <iomanip>
#include <iostream>

#include "base/flags.hh"
#include "base/table.hh"
#include "baselines/baselines.hh"
#include "core/profiler.hh"
#include "workloads/registry.hh"

using namespace wcrt;

namespace {

void
listWorkloads()
{
    std::cout << "Representative (Table 2):\n";
    for (const auto &e : representativeWorkloads())
        std::cout << "  " << e.name << "\n";
    std::cout << "MPI versions:\n";
    for (const auto &e : mpiWorkloads())
        std::cout << "  " << e.name << "\n";
    std::cout << "Baselines:\n";
    for (const auto &e : baselineWorkloads())
        std::cout << "  " << e.name << "\n";
    std::cout << "...plus the 77-entry roster (see "
                 "fullRoster()).\n";
}

WorkloadPtr
makeAny(const std::string &name, double scale)
{
    for (const auto &e : baselineWorkloads())
        if (e.name == name)
            return e.make(scale);
    return findWorkload(name).make(scale);
}

void
statLine(const std::string &value, const std::string &event,
         const std::string &derived = "")
{
    std::cout << std::setw(20) << value << "      " << std::left
              << std::setw(28) << event << std::right;
    if (!derived.empty())
        std::cout << "# " << derived;
    std::cout << "\n";
}

std::string
withCommas(uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
    for (size_t i = 0; i < digits.size(); ++i) {
        if (i >= lead && (i - lead) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string machine_name = "xeon";
    double scale = 0.5;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--list")) {
            listWorkloads();
            return 0;
        }
        if (!std::strcmp(argv[i], "-m") && i + 1 < argc) {
            machine_name = argv[++i];
        } else if (!std::strcmp(argv[i], "-s") && i + 1 < argc) {
            scale = realArg("-s", argv[++i], kMinScale, kMaxScale);
        } else {
            workload = argv[i];
        }
    }
    if (workload.empty()) {
        std::cerr << "usage: example_wcrt_stat [-m xeon|atom] "
                     "[-s scale] <workload> | --list\n";
        return 1;
    }

    MachineConfig machine =
        machine_name == "atom" ? atomD510() : xeonE5645();
    WorkloadPtr w = makeAny(workload, scale);
    WorkloadRun run = profileWorkload(*w, machine);
    const CpuReport &r = run.report;

    std::cout << "\n Performance counter stats for '" << run.name
              << "' (" << machine.name << " model, scale " << scale
              << "):\n\n";
    statLine(withCommas(r.instructions), "instructions",
             formatFixed(r.ipc, 2) + " insn per cycle");
    statLine(withCommas(static_cast<uint64_t>(r.cycles)), "cycles",
             "frontend stalls " +
                 formatFixed(r.frontendStallRatio * 100, 1) +
                 "%, backend " +
                 formatFixed(r.backendStallRatio * 100, 1) + "%");
    const BranchStats &bs = r.branchStats;
    statLine(withCommas(bs.total()), "branches",
             formatFixed(r.branchRatio * 100, 1) + "% of instructions");
    statLine(withCommas(bs.mispredicts()), "branch-misses",
             formatFixed(r.branchMispredictRatio * 100, 2) +
                 "% of all branches");
    statLine(withCommas(static_cast<uint64_t>(
                 r.l1iMpki * static_cast<double>(r.instructions) / 1e3)),
             "L1-icache-load-misses",
             formatFixed(r.l1iMpki, 2) + " MPKI");
    statLine(withCommas(static_cast<uint64_t>(
                 r.l1dMpki * static_cast<double>(r.instructions) / 1e3)),
             "L1-dcache-load-misses",
             formatFixed(r.l1dMpki, 2) + " MPKI");
    statLine(withCommas(static_cast<uint64_t>(
                 r.l2Mpki * static_cast<double>(r.instructions) / 1e3)),
             "l2_rqsts.miss", formatFixed(r.l2Mpki, 2) + " MPKI");
    statLine(withCommas(static_cast<uint64_t>(
                 r.l3Mpki * static_cast<double>(r.instructions) / 1e3)),
             "LLC-load-misses", formatFixed(r.l3Mpki, 2) + " MPKI");
    statLine(withCommas(static_cast<uint64_t>(
                 r.itlbMpki * static_cast<double>(r.instructions) /
                 1e3)),
             "iTLB-load-misses", formatFixed(r.itlbMpki, 3) + " MPKI");
    statLine(withCommas(static_cast<uint64_t>(
                 r.dtlbMpki * static_cast<double>(r.instructions) /
                 1e3)),
             "dTLB-load-misses", formatFixed(r.dtlbMpki, 3) + " MPKI");
    std::cout << "\n";
    statLine(formatFixed(r.gflops, 3), "GFLOPS (achieved)");
    statLine(formatFixed(r.codeFootprintKb, 0) + " KB",
             "instruction footprint");
    statLine(formatFixed(r.dataFootprintKb, 0) + " KB",
             "data footprint");
    std::cout << "\n " << toString(run.sysBehavior) << " ("
              << formatFixed(run.sysProfile.cpuUtilization * 100, 1)
              << "% cpu, "
              << formatFixed(run.sysProfile.ioWaitRatio * 100, 1)
              << "% iowait); " << run.data.describe() << "\n\n";
    return 0;
} catch (const FlagError &err) {
    std::cerr << "example_wcrt_stat: " << err.what() << "\n";
    return err.status;
}
