#include "workloads/workload.h"

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "faults/fault_injector.h"
#include "sim/simulator.h"
#include "telemetry/views.h"

namespace doppio::workloads {

spark::AppMetrics
Workload::run(const cluster::ClusterConfig &clusterConfig,
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
    registerInputs(hdfs);
    spark::SparkContext context(cluster, hdfs, sparkConf);
    context.setTaskTrace(trace);
    if (collector != nullptr)
        context.setTraceCollector(collector);

    std::unique_ptr<faults::FaultInjector> injector;
    if (faultSpec != nullptr && faultSpec->any()) {
        injector = std::make_unique<faults::FaultInjector>(
            *faultSpec, config.seed);
        context.setFaultInjector(injector.get());
        injector->arm(cluster);
    }

    execute(context);
    // Under fault injection stages stop at completion rather than
    // draining the queue; finish leftover background work (HDFS
    // re-replication, page-cache writeback, scheduled node events)
    // so its accounting is complete. No-op on a fault-free run.
    if (injector != nullptr)
        simulator.run();
    spark::AppMetrics metrics = context.metrics();
    metrics.name = name();
    if (cluster.pageCacheEnabled()) {
        metrics.pageCachePresent = true;
        metrics.pageCache = cluster.pageCacheTotals();
    }
    if (sparkConf.unifiedMemory) {
        metrics.memoryPresent = true;
        metrics.memory = context.blockManager().memoryMetrics();
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

TenantProgram
Workload::program(const std::string &prefix) const
{
    (void)prefix;
    fatal("workload %s is not multi-tenant capable (no program())",
          name().c_str());
}

void
Workload::registerInputs(dfs::Hdfs &hdfs) const
{
    program("").registerInputs(hdfs);
}

void
Workload::execute(spark::SparkContext &context) const
{
    const TenantProgram prog = program("");
    const std::vector<TenantJob> jobs =
        prog.buildJobs([&context](const std::string &fileName) {
            return context.hadoopFile(fileName);
        });
    for (const TenantJob &job : jobs) {
        context.runJob(job.name, job.target, job.action);
        for (const spark::RddRef &rdd : job.unpersistAfter)
            context.unpersist(rdd);
    }
}

model::WorkloadRunner
Workload::runner() const
{
    return [this](const cluster::ClusterConfig &clusterConfig,
                  const spark::SparkConf &sparkConf) {
        return run(clusterConfig, sparkConf);
    };
}

} // namespace doppio::workloads
