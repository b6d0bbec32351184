/**
 * @file
 * The two CLI-default simulator workloads (cli-terasort, cli-lr).
 *
 * cliClusterConfig()/cliSparkConf() rebuild exactly the configuration
 * `doppio run <workload>` uses with no flags: the evaluation cluster
 * (ten slaves, P=36, SSD for HDFS and local), page cache on, unified
 * memory on. The timed path calls the two-argument
 * Workload::run(config, conf).
 *
 * runDriver() rebuilds the same run from public parts (Simulator,
 * Cluster, Hdfs with program("").registerInputs, SparkContext::runJob
 * per job) so the traced run can put spans around each layer call and
 * read the event heap's counters; its metrics JSON is byte-identical
 * to Workload::run's for the same configuration.
 */

#ifndef PERFBENCH_CLI_RUNS_H
#define PERFBENCH_CLI_RUNS_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "spans.h"
#include "spark/metrics.h"
#include "spark/spark_conf.h"
#include "telemetry/registry.h"
#include "workloads/workload.h"

namespace perfbench {

/** `doppio run` with no flags, with ClusterConfig::seed = @p seed. */
doppio::cluster::ClusterConfig cliClusterConfig(std::uint64_t seed);

/** The SparkConf `doppio run` builds with no flags. */
doppio::spark::SparkConf cliSparkConf();

/** Registry workload name behind a benchmark workload ("" if none). */
std::string cliWorkloadName(const std::string &benchWorkload);

/** One traced driver run. */
struct DriverRun
{
    doppio::spark::AppMetrics metrics;
    std::uint64_t eventsFired = 0;
    std::uint64_t eventsScheduled = 0;
};

/**
 * Run @p workload the way Workload::run(config, conf, nullptr,
 * nullptr, nullptr, registry) does, inside a "workloads.run" span with
 * children "workloads.setup" (Cluster, Hdfs, input registration) and
 * one "spark.job" per job.
 */
DriverRun runDriver(const doppio::workloads::Workload &workload,
                    const doppio::cluster::ClusterConfig &config,
                    const doppio::spark::SparkConf &conf, Tracer &tracer,
                    std::uint64_t request,
                    doppio::telemetry::Registry *registry = nullptr);

/**
 * Output checks on one CLI-default run of @p benchWorkload at
 * @p seed: every job and stage ran to completion, the job/stage/task
 * counts match the reference, and simulated seconds are finite,
 * positive and within kSimSecondsTolerance of the reference for the
 * seed. @return one line per problem (empty when the run is correct).
 */
std::vector<std::string>
checkCliRun(const std::string &benchWorkload,
            const doppio::spark::AppMetrics &metrics, std::uint64_t seed);

/**
 * Relative tolerance on simulated seconds against the reference. It
 * admits the 0.5% drift a validated fast path may introduce (e.g. a
 * fluid page-cache writeback); anything larger is a wrong answer.
 */
constexpr double kSimSecondsTolerance = 0.01;

/** Layer counters one run published into its telemetry registry. */
struct LayerCounters
{
    double storageRequests = 0.0;    //!< device requests, all roles/ops
    double storageBytes = 0.0;       //!< bytes moved at the devices
    double storageBusySeconds = 0.0; //!< read + write busy, simulated
    double jobs = 0.0;
    double stages = 0.0;
    double tasks = 0.0;
    double pageCacheReads = 0.0;
    double pageCacheWrites = 0.0;
    double flushRequests = 0.0;
    double throttledWrites = 0.0;
    double hitRatio = 0.0;
    double evictedBytes = 0.0;
    double evictedBlocks = 0.0; //!< unified memory manager
    double spilledBytes = 0.0;  //!< unified memory manager

    /** Sum counts (hitRatio is not additive and is left alone). */
    LayerCounters &operator+=(const LayerCounters &other);
};

/** @return the counters @p registry holds (absent series read 0). */
LayerCounters
layerCounters(const doppio::telemetry::Registry &registry);

} // namespace perfbench

#endif // PERFBENCH_CLI_RUNS_H
