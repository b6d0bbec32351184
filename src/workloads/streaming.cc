#include "workloads/streaming.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "faults/fault_injector.h"
#include "sim/simulator.h"
#include "telemetry/views.h"

namespace doppio::workloads {

namespace {

// Calibrated like the batch workloads: light parse pipelined with the
// HDFS read, then either a compute pass (lr) or a shuffle (agg).

/// Record parse pipelined with HDFS read (~0.67 s per 128 MiB).
constexpr double kStreamParseCpuPerByte = 5.0e-9;

/// Model application over the parsed batch (~2.7 s per 128 MiB).
constexpr double kScoreCpuPerByte = 2.1e-8;

/// Map-side serialize pipelined with the shuffle spill writes.
constexpr double kStreamSpillCpuPerByte = 1.5e-9;

/// Reduce-side merge pipelined with the shuffle-read chunks.
constexpr double kStreamMergeCpuPerByte = 2.0e-9;

/** Shared file-name scheme: batch k of a stream. */
std::string
batchFile(const std::string &prefix, int index)
{
    return prefix + "stream_batch_" + std::to_string(index);
}

/**
 * Stable FNV-1a over the batch file name (std::hash is not portable
 * across standard libraries). Non-zero so it always pins the stream.
 */
std::uint64_t
batchCacheSalt(const std::string &fileName)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : fileName) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h | 1;
}

/** Source RDD over one batch file with a pinned cache stream. */
spark::RddRef
batchInput(sched::JobContext &context, const std::string &prefix,
           int index)
{
    const std::string file = batchFile(prefix, index);
    spark::RddRef input = context.hadoopFile(file);
    input->pipelinedCpuPerByte = kStreamParseCpuPerByte;
    // Same-sized batches would otherwise derive the same page-cache
    // stream and turn fresh data into spurious hits.
    input->cacheStreamSalt = batchCacheSalt(file);
    return input;
}

/**
 * Checkpoints and recoveries of one stream share the chain of
 * checkpointed state RDDs; keyed by the batch each checkpoint covers
 * so the driver's notion of "last durable checkpoint" (set when the
 * checkpoint job *completes*) always resolves to the right lineage
 * node even with a newer checkpoint still in flight.
 */
struct StreamState
{
    std::unordered_map<int, spark::RddRef> checkpoints;
};

/** Serialized size of the stream's accumulated state. */
Bytes
streamStateBytes(Bytes batchBytes)
{
    return std::max<Bytes>(kMiB, batchBytes / 8);
}

} // namespace

StreamingTemplate
makeStreamingTemplate(const std::string &name, const std::string &prefix,
                      int batches, Bytes batchBytes)
{
    using spark::ActionSpec;
    using spark::Rdd;
    using spark::RddRef;

    if (batches <= 0)
        fatal("makeStreamingTemplate: batches must be positive");
    if (batchBytes == 0)
        fatal("makeStreamingTemplate: batchBytes must be positive");

    StreamingTemplate tmpl;
    auto state = std::make_shared<StreamState>();
    const Bytes stateBytes = streamStateBytes(batchBytes);
    // State update: fold one batch (or a replay of several) into the
    // running state — the updateStateByKey analogue, costed like the
    // model-application pass.
    tmpl.checkpointBuilder = [prefix, state, stateBytes](
                                 sched::JobContext &context, int k) {
        RddRef stateRdd = Rdd::narrow(
            prefix + "state-" + std::to_string(k),
            {batchInput(context, prefix, k)}, stateBytes);
        stateRdd->cpuPerInputByte = kScoreCpuPerByte;
        stateRdd->checkpoint();
        state->checkpoints[k] = stateRdd;
        return sched::BatchJob{"ckpt-" + std::to_string(k), stateRdd,
                               ActionSpec::count()};
    };
    tmpl.recoveryBuilder = [prefix, state, stateBytes](
                               sched::JobContext &context,
                               int checkpointBatch, int first,
                               int last) {
        std::vector<RddRef> parents;
        if (checkpointBatch >= 0)
            parents.push_back(state->checkpoints.at(checkpointBatch));
        for (int k = first; k <= last; ++k)
            parents.push_back(batchInput(context, prefix, k));
        if (parents.empty())
            fatal("streaming recovery: no checkpoint and no batches "
                  "to replay");
        RddRef rebuilt = Rdd::narrow(prefix + "recovered-state",
                                     parents, stateBytes);
        rebuilt->cpuPerInputByte = kScoreCpuPerByte;
        return sched::BatchJob{"recover-" + std::to_string(first),
                               rebuilt, ActionSpec::collect()};
    };
    tmpl.registerInputs = [prefix, batches,
                           batchBytes](dfs::Hdfs &hdfs) {
        // One file per arrival: fresh stream data is never page-cache
        // resident from a previous batch.
        for (int k = 0; k < batches; ++k)
            hdfs.addFile(batchFile(prefix, k), batchBytes);
    };

    if (name == "lr") {
        tmpl.builder = [prefix](sched::JobContext &context,
                                int index) {
            RddRef input = batchInput(context, prefix, index);
            RddRef scored =
                Rdd::narrow("scored", {input}, mib(1));
            scored->cpuPerInputByte = kScoreCpuPerByte;
            return sched::BatchJob{
                "batch-" + std::to_string(index), scored,
                ActionSpec::collect()};
        };
        return tmpl;
    }
    if (name == "agg") {
        tmpl.builder = [prefix, batchBytes](sched::JobContext &context,
                                            int index) {
            RddRef input = batchInput(context, prefix, index);
            spark::ShuffleSpec shuffle;
            shuffle.bytes = batchBytes;
            shuffle.mapCpuPerByte = kStreamSpillCpuPerByte;
            shuffle.mapStageName =
                "batch-" + std::to_string(index) + ".map";
            const int reducers = static_cast<int>(
                std::max<Bytes>(1, batchBytes / (32 * kMiB)));
            RddRef aggregated = Rdd::shuffled(
                "aggregated", input, reducers, batchBytes, shuffle);
            aggregated->pipelinedCpuPerByte = kStreamMergeCpuPerByte;
            return sched::BatchJob{
                "batch-" + std::to_string(index), aggregated,
                ActionSpec::count()};
        };
        return tmpl;
    }
    fatal("makeStreamingTemplate: unknown template '%s' (expected "
          "lr or agg)",
          name.c_str());
}

spark::AppMetrics
Streaming::run(const cluster::ClusterConfig &clusterConfig,
               const spark::SparkConf &sparkConf,
               spark::TaskTrace *trace,
               const faults::FaultSpec *faultSpec,
               trace::TraceCollector *collector,
               telemetry::Registry *registry) const
{
    sim::Simulator simulator;
    cluster::ClusterConfig config = clusterConfig;
    if (taskTimeVariability() >= 0.0)
        config.taskJitterSigma = taskTimeVariability();
    cluster::Cluster cluster(simulator, config);
    if (collector != nullptr)
        cluster.setTraceCollector(collector);
    if (registry != nullptr)
        telemetry::attachCluster(*registry, cluster);
    dfs::Hdfs hdfs(cluster, hdfsConfig());
    const StreamingTemplate tmpl = makeStreamingTemplate(
        options_.tmpl, "", options_.stream.batches,
        options_.batchBytes);
    tmpl.registerInputs(hdfs);

    sched::JobScheduler scheduler(cluster, hdfs, sparkConf);
    scheduler.engine().setTrace(trace);
    if (collector != nullptr)
        scheduler.setTraceCollector(collector);

    std::unique_ptr<faults::FaultInjector> injector;
    if (faultSpec != nullptr && faultSpec->any()) {
        injector = std::make_unique<faults::FaultInjector>(
            *faultSpec, config.seed);
        scheduler.setFaultInjector(injector.get());
        injector->arm(cluster);
    }

    sched::JobContext &context = scheduler.addTenant("stream");
    sched::StreamingDriver driver(options_.stream);
    driver.enableRecovery(tmpl.checkpointBuilder, tmpl.recoveryBuilder);
    driver.start(scheduler, context, tmpl.builder);
    scheduler.run();

    spark::AppMetrics metrics = context.appMetrics();
    metrics.name = name();
    metrics.streamingPresent = true;
    metrics.streaming = driver.stats();
    if (cluster.pageCacheEnabled()) {
        metrics.pageCachePresent = true;
        metrics.pageCache = cluster.pageCacheTotals();
    }
    if (sparkConf.unifiedMemory) {
        metrics.memoryPresent = true;
        metrics.memory = scheduler.blockManager().memoryMetrics();
    }
    if (injector != nullptr)
        metrics.faults = spark::foldRunFaults({&metrics, 1}, cluster, hdfs);
    if (registry != nullptr) {
        telemetry::publishAppMetrics(*registry, metrics);
        telemetry::publishCluster(*registry, cluster);
        telemetry::publishHdfs(*registry, hdfs);
    }
    return metrics;
}

} // namespace doppio::workloads
