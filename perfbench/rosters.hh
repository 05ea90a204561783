/**
 * @file
 * The benchmark's seeded rosters.
 *
 * The registry (workloads/registry.hh) pins every dataset seed to 7.
 * These rosters build the same workloads under the same names, but
 * hand the benchmark's --seed to every constructor, so one seed
 * selects one set of inputs. At seed 7 each entry captures the same
 * trace as its registry namesake (perfbench_tests checks this).
 */

#ifndef WCRT_PERFBENCH_ROSTERS_HH
#define WCRT_PERFBENCH_ROSTERS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace wcrt::perfbench {

/** One named workload constructor bound to a seed. */
struct SeededEntry
{
    std::string name;
    std::function<WorkloadPtr(double scale)> make;
};

/** The 77-entry reduction roster (registry fullRoster()). */
std::vector<SeededEntry> fullRoster77(uint64_t seed);

/** Table 2's 17 representatives (registry representativeWorkloads()). */
std::vector<SeededEntry> representatives17(uint64_t seed);

/**
 * The Figure 6-8 roster: the five Hadoop entries of
 * scenarios/fig6_icache.scn plus PARSEC-like. PARSEC-like is a
 * baseline kernel with fixed inputs and takes no seed.
 */
std::vector<SeededEntry> mrcRoster(uint64_t seed);

} // namespace wcrt::perfbench

#endif // WCRT_PERFBENCH_ROSTERS_HH
