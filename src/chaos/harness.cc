#include "chaos/harness.h"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/units.h"
#include "dfs/hdfs.h"
#include "faults/fault_injector.h"
#include "sim/simulator.h"
#include "spark/metrics_json.h"
#include "spark/rdd.h"
#include "spark/spark_context.h"
#include "telemetry/flight_recorder.h"
#include "trace/trace_collector.h"

namespace doppio::chaos {

namespace {

/** Input size: sized (with kCpuPerByte) so the fault-free rig spans
 *  a couple of simulated minutes — fault onsets land *inside* running
 *  stages, not after the app already finished — while one run stays
 *  milliseconds of host time. */
constexpr Bytes kInputBytes = 8ULL * kGiB;

/** Per-byte CPU cost of the narrow transforms (keeps stages long
 *  enough that kills interrupt in-flight tasks). */
constexpr double kCpuPerByte = 20.0e-9;

/** Rig executor width (per node). */
constexpr int kExecutorCores = 4;

} // namespace

ChaosRunResult
runChaosRig(const ChaosOptions &options, const faults::FaultSpec *spec,
            trace::TraceCollector *collector)
{
    ChaosRunResult result;

    sim::Simulator sim;
    sim.setEventBudget(options.eventBudget);

    cluster::ClusterConfig config =
        cluster::ClusterConfig::evaluationCluster();
    config.numSlaves = options.numSlaves;
    config.taskJitterSigma = 0.0;

    spark::SparkConf conf;
    conf.executorCores = kExecutorCores;
    conf.unifiedMemory = true;
    conf.speculation = true; // gray slow-nodes must be routed around
    // A schedule may stack crash rates on top of kills; the rig only
    // measures whether the run converges, not whether it gives up.
    conf.taskMaxFailures = 1000;
    conf.stageMaxAttempts = 50;

    try {
        cluster::Cluster cluster(sim, config);
        dfs::Hdfs hdfs(cluster);
        hdfs.addFile("input", kInputBytes);
        spark::SparkContext context(cluster, hdfs, conf);
        if (collector != nullptr) {
            cluster.setTraceCollector(collector);
            context.setTraceCollector(collector);
        }

        std::unique_ptr<faults::FaultInjector> injector;
        if (spec != nullptr) {
            injector = std::make_unique<faults::FaultInjector>(
                *spec, options.seed);
            context.setFaultInjector(injector.get());
            injector->arm(cluster);
        }

        // Job 1: narrow transform persisted MemoryAndDisk — source
        // replica failover plus cached-block loss on kill.
        spark::RddRef input = context.hadoopFile("input");
        spark::RddRef scored =
            spark::Rdd::narrow("scored", {input}, kInputBytes)
                ->persist(spark::StorageLevel::MemoryAndDisk);
        scored->cpuPerInputByte = kCpuPerByte;
        context.runJob("warmup", scored, spark::ActionSpec::count());

        // Job 2: shuffle — fetch failures, stage reattempts,
        // map-output recomputation.
        spark::ShuffleSpec shuffle;
        shuffle.bytes = kInputBytes;
        spark::RddRef grouped = spark::Rdd::shuffled(
            "grouped", scored, 16, kInputBytes, shuffle);
        context.runJob("agg", grouped, spark::ActionSpec::count());

        // Job 3: checkpointed narrow stage — write-through to HDFS.
        spark::RddRef state =
            spark::Rdd::narrow("state", {grouped}, kInputBytes / 4);
        state->cpuPerInputByte = kCpuPerByte;
        state->checkpoint();
        context.runJob("snapshot", state, spark::ActionSpec::count());

        // Job 4: consume the checkpoint — the chain must read it back
        // instead of recomputing the shuffle lineage.
        spark::RddRef final_ =
            spark::Rdd::narrow("final", {state}, kInputBytes / 4);
        context.runJob("readback", final_,
                       spark::ActionSpec::collect());

        // Drain stragglers: scheduled heal/rejoin events, background
        // re-replication of quarantined blocks.
        sim.run();

        result.metrics = context.metrics();
        if (injector != nullptr)
            result.metrics.faults = spark::foldRunFaults(
                {&result.metrics, 1}, cluster, hdfs);
        result.json = spark::metricsJson(result.metrics);
        result.elapsedSec = result.metrics.seconds();
        result.firedEvents = sim.firedEvents();
        result.completed = true;
    } catch (const FatalError &e) {
        result.error = e.what();
        result.firedEvents = sim.firedEvents();
    }
    return result;
}

namespace {

/** "job/stage job/stage ..." — the run's structural signature. */
std::string
shapeSignature(const spark::AppMetrics &metrics)
{
    std::ostringstream os;
    for (const spark::JobMetrics &job : metrics.jobs)
        for (const spark::StageMetrics &stage : job.stages)
            os << job.name << '/' << stage.name << ' ';
    return os.str();
}

/**
 * Work conservation: summed task-seconds (plus work the faults
 * discarded) cannot exceed cluster capacity over the run's window,
 * and no task can outlive its stage. 1% slack absorbs tick rounding.
 */
bool
checkAttribution(const spark::AppMetrics &metrics, int numSlaves,
                 int cores, std::string &failure)
{
    constexpr double kSlack = 1.01;
    double taskSeconds = 0.0;
    for (const spark::JobMetrics &job : metrics.jobs) {
        for (const spark::StageMetrics &stage : job.stages) {
            taskSeconds += stage.taskDuration.sum();
            if (stage.taskDuration.count() > 0 &&
                stage.taskDuration.max() >
                    stage.seconds() * kSlack) {
                std::ostringstream os;
                os << "stage " << job.name << '/' << stage.name
                   << ": longest task " << stage.taskDuration.max()
                   << "s exceeds stage window " << stage.seconds()
                   << "s";
                failure = os.str();
                return false;
            }
        }
    }
    const double accounted =
        taskSeconds + metrics.faults.wastedTaskSeconds;
    const double capacity =
        metrics.seconds() * numSlaves * cores * kSlack;
    if (accounted > capacity) {
        std::ostringstream os;
        os << "accounted task-seconds " << accounted
           << " exceed cluster capacity " << capacity << " over "
           << metrics.seconds() << "s";
        failure = os.str();
        return false;
    }
    return true;
}

/**
 * The invariant evaluation proper. @p collector, when non-null, rides
 * along on the faulty run only — the run whose history a postmortem
 * should explain.
 */
ChaosVerdict
evaluateInvariants(const ChaosOptions &options,
                   trace::TraceCollector *collector)
{
    ChaosVerdict verdict;
    verdict.seed = options.seed;

    const faults::FaultSpec spec = generateSchedule(options);
    verdict.scheduleEvents = spec.schedule.size();

    const ChaosRunResult baseline = runChaosRig(options, nullptr);
    if (!baseline.completed) {
        verdict.failure = "baseline run failed: " + baseline.error;
        return verdict;
    }
    verdict.baselineElapsedSec = baseline.elapsedSec;

    const ChaosRunResult faulty = runChaosRig(options, &spec, collector);
    if (!faulty.completed) {
        verdict.failure = "faulty run failed: " + faulty.error;
        return verdict;
    }
    verdict.completedOk = true;
    verdict.faultyElapsedSec = faulty.elapsedSec;

    const ChaosRunResult rerun = runChaosRig(options, &spec);
    verdict.deterministicOk =
        rerun.completed && rerun.json == faulty.json;
    if (!verdict.deterministicOk) {
        verdict.failure =
            rerun.completed
                ? "rerun under the same seed diverged from the first "
                  "run"
                : "rerun failed: " + rerun.error;
        return verdict;
    }

    if (options.transientOnly) {
        const std::string base = shapeSignature(baseline.metrics);
        const std::string fault = shapeSignature(faulty.metrics);
        verdict.equivalentOk = base == fault;
        if (!verdict.equivalentOk) {
            verdict.failure = "job/stage shape diverged from "
                              "fault-free baseline: [" +
                              fault + "] vs [" + base + "]";
            return verdict;
        }
    } else {
        verdict.equivalentOk = true; // permanent faults may reshape
    }

    verdict.attributionOk =
        checkAttribution(faulty.metrics, options.numSlaves,
                         kExecutorCores, verdict.failure);
    return verdict;
}

} // namespace

ChaosVerdict
checkInvariants(const ChaosOptions &options)
{
    if (options.postmortemPath.empty())
        return evaluateInvariants(options, nullptr);

    // Fly the faulty run with a bounded recorder behind a record-only
    // collector: the collector keeps no event vector of its own, so
    // memory stays O(categories x ring capacity) however long the rig
    // runs, and attachment cannot perturb the simulation.
    telemetry::FlightRecorder recorder;
    trace::TraceCollector collector;
    collector.setSink(&recorder);
    collector.setRecordOnly(true);

    const ChaosVerdict verdict = evaluateInvariants(options, &collector);
    if (!verdict.failure.empty()) {
        recorder.note("chaos invariant tripped (seed " +
                      std::to_string(options.seed) +
                      "): " + verdict.failure);
        recorder.dumpToFile(options.postmortemPath, verdict.failure);
    }
    return verdict;
}

} // namespace doppio::chaos
