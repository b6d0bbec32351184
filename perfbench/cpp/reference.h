/**
 * @file
 * Reference outputs of the CLI-default workloads, per seed.
 *
 * reference.cc holds what the simulator produced for seeds
 * 0..seconds.size()-1; regenerate it with
 * `doppio_perfbench --reference <workload> --seeds N` after a change
 * that is meant to move simulated time, and say why in the commit.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Structure and simulated seconds of one workload's reference runs. */
struct CliReference
{
    std::string benchWorkload;
    std::size_t jobs = 0;
    std::size_t stages = 0;
    std::uint64_t tasks = 0;
    /** Simulated seconds of the run with ClusterConfig::seed = index. */
    std::vector<double> seconds;
};

/** @return the reference of @p benchWorkload, nullptr if none. */
const CliReference *findCliReference(const std::string &benchWorkload);

/**
 * @return the simulated-seconds interval a run at @p seed must match:
 * the seed's own value when the table has it, otherwise the span of
 * every tabulated seed.
 */
std::pair<double, double> referenceSecondsRange(const CliReference &ref,
                                                std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
