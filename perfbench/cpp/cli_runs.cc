#include "cli_runs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "cluster/cluster.h"
#include "dfs/hdfs.h"
#include "reference.h"
#include "sim/simulator.h"
#include "spark/spark_context.h"
#include "storage/disk_params.h"
#include "storage/io_request.h"
#include "telemetry/views.h"

namespace perfbench {

using namespace doppio;

cluster::ClusterConfig
cliClusterConfig(std::uint64_t seed)
{
    // tools/doppio_cli.cpp clusterFromArgs() with no flags.
    cluster::ClusterConfig config =
        cluster::ClusterConfig::evaluationCluster();
    config.node.hdfsDisk = storage::makeSsdParams();
    config.node.localDisk = storage::makeSsdParams();
    config.node.localDiskCount = 1;
    config.node.pageCache.enabled = true;
    config.node.pageCache.capacity = 0;
    config.node.pageCache.dirtyBackgroundRatio =
        std::min(config.node.pageCache.dirtyBackgroundRatio,
                 config.node.pageCache.dirtyRatio / 2.0);
    config.node.pageCache.readAhead =
        config.node.pageCache.readAhead / kKiB * kKiB;
    config.seed = seed;
    return config;
}

spark::SparkConf
cliSparkConf()
{
    // tools/doppio_cli.cpp sparkConfFromArgs() with no flags.
    spark::SparkConf conf;
    conf.executorCores = 36;
    conf.speculation = false;
    conf.unifiedMemory = true;
    return conf;
}

std::string
cliWorkloadName(const std::string &benchWorkload)
{
    if (benchWorkload == "cli-terasort")
        return "terasort";
    if (benchWorkload == "cli-lr")
        return "lr-large";
    return "";
}

DriverRun
runDriver(const workloads::Workload &workload,
          const cluster::ClusterConfig &clusterConfig,
          const spark::SparkConf &conf, Tracer &tracer,
          std::uint64_t request, telemetry::Registry *registry)
{
    // Mirrors workloads/workload.cc Workload::run on a fault-free,
    // collector-free run; no workload overrides hdfsConfig(),
    // registerInputs() or execute().
    Tracer::Scope root(tracer, "workloads.run", request);
    sim::Simulator simulator;
    cluster::ClusterConfig config = clusterConfig;
    if (workload.taskTimeVariability() >= 0.0)
        config.taskJitterSigma = workload.taskTimeVariability();

    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<dfs::Hdfs> hdfs;
    {
        Tracer::Scope setup(tracer, "workloads.setup", request);
        cluster = std::make_unique<cluster::Cluster>(simulator, config);
        if (registry != nullptr)
            telemetry::attachCluster(*registry, *cluster);
        hdfs = std::make_unique<dfs::Hdfs>(*cluster, dfs::HdfsConfig{});
        workload.program("").registerInputs(*hdfs);
    }
    spark::SparkContext context(*cluster, *hdfs, conf);

    const workloads::TenantProgram program = workload.program("");
    const std::vector<workloads::TenantJob> jobs =
        program.buildJobs([&context](const std::string &fileName) {
            return context.hadoopFile(fileName);
        });
    for (const workloads::TenantJob &job : jobs) {
        Tracer::Scope span(tracer, "spark.job", request);
        context.runJob(job.name, job.target, job.action);
        for (const spark::RddRef &rdd : job.unpersistAfter)
            context.unpersist(rdd);
    }

    DriverRun out;
    out.metrics = context.metrics();
    out.metrics.name = workload.name();
    if (cluster->pageCacheEnabled()) {
        out.metrics.pageCachePresent = true;
        out.metrics.pageCache = cluster->pageCacheTotals();
    }
    if (conf.unifiedMemory) {
        out.metrics.memoryPresent = true;
        out.metrics.memory = context.blockManager().memoryMetrics();
    }
    if (registry != nullptr) {
        telemetry::publishAppMetrics(*registry, out.metrics);
        telemetry::publishCluster(*registry, *cluster);
        telemetry::publishHdfs(*registry, *hdfs);
    }
    out.eventsFired = simulator.firedEvents();
    out.eventsScheduled = simulator.scheduledEvents();
    return out;
}

std::vector<std::string>
checkCliRun(const std::string &benchWorkload,
            const spark::AppMetrics &metrics, std::uint64_t seed)
{
    std::vector<std::string> problems;
    const CliReference *ref = findCliReference(benchWorkload);
    if (ref == nullptr) {
        problems.push_back("no reference for workload " + benchWorkload);
        return problems;
    }
    std::size_t stages = 0;
    std::uint64_t tasks = 0;
    for (const spark::StageMetrics *stage : metrics.allStages()) {
        ++stages;
        tasks += static_cast<std::uint64_t>(stage->numTasks);
        if (stage->fetchFailedSource >= 0 || stage->numTasks <= 0 ||
            stage->endTick < stage->startTick)
            problems.push_back("stage " + stage->name +
                               " did not complete");
    }
    if (metrics.jobs.size() != ref->jobs || stages != ref->stages ||
        tasks != ref->tasks) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "ran %zu jobs / %zu stages / %llu tasks, reference "
                      "%zu / %zu / %llu",
                      metrics.jobs.size(), stages,
                      static_cast<unsigned long long>(tasks), ref->jobs,
                      ref->stages,
                      static_cast<unsigned long long>(ref->tasks));
        problems.push_back(buf);
    }
    const double seconds = metrics.seconds();
    if (!std::isfinite(seconds) || seconds <= 0.0) {
        problems.push_back("simulated seconds not finite and positive");
        return problems;
    }
    const auto [lo, hi] = referenceSecondsRange(*ref, seed);
    if (seconds < lo * (1.0 - kSimSecondsTolerance) ||
        seconds > hi * (1.0 + kSimSecondsTolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "simulated %.6g s, reference %.6g..%.6g s "
                      "(tolerance %.3g)",
                      seconds, lo, hi, kSimSecondsTolerance);
        problems.push_back(buf);
    }
    return problems;
}

namespace {

/** Sum of a counter family over @p labels (absent series read 0). */
double
counterSum(const telemetry::Registry &registry, const std::string &name,
           const std::vector<telemetry::Labels> &labels = {{}})
{
    double total = 0.0;
    for (const telemetry::Labels &set : labels) {
        if (const telemetry::Counter *c = registry.findCounter(name, set))
            total += static_cast<double>(c->value());
    }
    return total;
}

double
gaugeValue(const telemetry::Registry &registry, const std::string &name,
           const telemetry::Labels &labels = {})
{
    const telemetry::Gauge *g = registry.findGauge(name, labels);
    return g != nullptr ? g->value() : 0.0;
}

} // namespace

LayerCounters &
LayerCounters::operator+=(const LayerCounters &other)
{
    storageRequests += other.storageRequests;
    storageBytes += other.storageBytes;
    storageBusySeconds += other.storageBusySeconds;
    jobs += other.jobs;
    stages += other.stages;
    tasks += other.tasks;
    pageCacheReads += other.pageCacheReads;
    pageCacheWrites += other.pageCacheWrites;
    flushRequests += other.flushRequests;
    throttledWrites += other.throttledWrites;
    evictedBytes += other.evictedBytes;
    evictedBlocks += other.evictedBlocks;
    spilledBytes += other.spilledBytes;
    return *this;
}

LayerCounters
layerCounters(const telemetry::Registry &registry)
{
    std::vector<telemetry::Labels> disk;
    for (const char *role : {"hdfs", "local"}) {
        for (const storage::IoOp op : storage::kAllIoOps)
            disk.push_back({{"op", storage::ioOpName(op)}, {"role", role}});
    }
    LayerCounters c;
    c.storageRequests =
        counterSum(registry, "doppio_disk_requests_total", disk);
    c.storageBytes = counterSum(registry, "doppio_disk_bytes_total", disk);
    for (const char *role : {"hdfs", "local"}) {
        c.storageBusySeconds +=
            gaugeValue(registry, "doppio_disk_read_busy_seconds",
                       {{"role", role}}) +
            gaugeValue(registry, "doppio_disk_write_busy_seconds",
                       {{"role", role}});
    }
    c.jobs = counterSum(registry, "doppio_app_jobs_total");
    c.stages = counterSum(registry, "doppio_app_stages_total");
    c.tasks = counterSum(registry, "doppio_app_tasks_total");
    c.pageCacheReads = counterSum(registry, "doppio_pagecache_reads_total");
    c.pageCacheWrites = counterSum(registry, "doppio_pagecache_writes_total");
    c.flushRequests =
        counterSum(registry, "doppio_pagecache_flush_requests_total");
    c.throttledWrites =
        counterSum(registry, "doppio_pagecache_throttled_writes_total");
    c.hitRatio = gaugeValue(registry, "doppio_pagecache_hit_ratio");
    c.evictedBytes =
        counterSum(registry, "doppio_pagecache_evicted_bytes_total");
    c.evictedBlocks =
        counterSum(registry, "doppio_memory_evicted_blocks_total");
    c.spilledBytes = counterSum(registry, "doppio_memory_spilled_bytes_total");
    return c;
}

} // namespace perfbench
