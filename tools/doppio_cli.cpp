/**
 * @file
 * doppio — command-line front end to the library.
 *
 *   doppio list
 *       List the bundled workloads.
 *   doppio run <workload> [--nodes N] [--cores P] [--hdfs T]
 *              [--local T] [--local-disks K] [--speculate]
 *              [--trace FILE] [--perfetto FILE] [--json FILE]
 *              [--no-page-cache] [--cache-capacity MIB]
 *              [--cache-dirty-ratio F] [--cache-readahead KIB]
 *              [--fault-spec SPEC] [--task-fail-rate F]
 *              [--kill-node ID@T] [--pool NAME] [--verbose]
 *       Simulate a workload and print per-stage metrics. The OS page
 *       cache is modeled unless --no-page-cache is given. Fault flags
 *       arm the fault injector; without them the run is bit-for-bit
 *       identical to a build without the fault subsystem. --perfetto
 *       records a full telemetry timeline (Chrome trace-event JSON,
 *       opens in Perfetto) and prints the per-stage phase-attribution
 *       report; an untraced run's outputs are byte-identical to a
 *       traced run's. --pool routes the workload through the
 *       multi-tenant scheduler as a single tenant of the named pool.
 *   doppio run --jobs-spec FILE [cluster/memory/fault options]
 *       Multi-tenant run: FILE declares scheduler pools and tenant
 *       lines (see src/sched/jobs_spec.h for the grammar). All tenants
 *       share one cluster, one page cache and one fault schedule;
 *       --json emits the combined multi-tenant document and --perfetto
 *       gets one timeline lane per job.
 *   doppio profile <workload> [--nodes N] [--cores P] [--hdfs T]
 *              [--local T]
 *       Fit the I/O-aware model (extended five-run methodology) and
 *       print the model report for the given platform.
 *   doppio fio [--disk T]
 *       Print the effective-bandwidth sweep for a device.
 *   doppio optimize [--workers N]
 *       Profile GATK4 on simulated cloud workers and print the
 *       cheapest configurations plus the cost/runtime Pareto front.
 *   doppio serve --script FILE | --port N
 *       What-if planning service (DESIGN.md §14): answer
 *       line-delimited JSON plan queries either by deterministically
 *       replaying a script file (one request per line, '#' comments)
 *       or over TCP on 127.0.0.1:N. --stats-json dumps the operator
 *       counters (shed/degraded/retry/partition-timeout telemetry)
 *       after the script or serve loop finishes; --metrics-out writes
 *       the doppio_service_* Prometheus exposition (the same text the
 *       {"cmd":"metrics"} control query returns inline), and
 *       --postmortem FILE attaches a flight recorder that dumps the
 *       recent event rings to FILE when the circuit breaker opens.
 *
 * Any run variant accepts --metrics-out FILE: the run's counters,
 * gauges and latency histograms in Prometheus text exposition format
 * (DESIGN.md §15). Metrics observe only — a run with --metrics-out is
 * byte-identical (tables, --json, exit code) to one without.
 *
 * Disk types T: hdd, ssd, nvme. Unknown flags and out-of-range values
 * abort with a non-zero exit instead of being silently ignored.
 */

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cloud/advisor.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "faults/fault_spec.h"
#include "model/profiler.h"
#include "model/report.h"
#include "sched/jobs_spec.h"
#include "service/server.h"
#include "spark/metrics_json.h"
#include "spark/task_trace.h"
#include "storage/fio.h"
#include "telemetry/bottleneck.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/registry.h"
#include "trace/phase_report.h"
#include "trace/trace_collector.h"
#include "workloads/gatk4.h"
#include "workloads/multi_tenant.h"
#include "workloads/registry.h"

using namespace doppio;

namespace {

/**
 * Strict flag parser: --name value and boolean --name. Every token a
 * command looks at is marked consumed; rejectUnknown() then fails fast
 * on anything left over (typos, flags of another command), and numeric
 * values must parse completely and fall inside the caller's range.
 */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i)
            tokens_.emplace_back(argv[i]);
        consumed_.assign(tokens_.size(), false);
    }

    /** Last occurrence wins; fatal() when the value is missing. */
    std::string
    value(const std::string &flag, const std::string &fallback) const
    {
        std::string result = fallback;
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
            if (tokens_[i] != flag)
                continue;
            if (i + 1 >= tokens_.size())
                fatal("flag %s expects a value", flag.c_str());
            consumed_[i] = consumed_[i + 1] = true;
            result = tokens_[i + 1];
        }
        return result;
    }

    int
    intValue(const std::string &flag, int fallback, int lo = INT_MIN,
             int hi = INT_MAX) const
    {
        const std::string v = value(flag, "");
        if (v.empty())
            return fallback;
        char *end = nullptr;
        errno = 0;
        const long parsed = std::strtol(v.c_str(), &end, 10);
        if (errno != 0 || end == v.c_str() || *end != '\0')
            fatal("flag %s: '%s' is not an integer", flag.c_str(),
                  v.c_str());
        if (parsed < lo || parsed > hi)
            fatal("flag %s: %ld out of range [%d, %d]", flag.c_str(),
                  parsed, lo, hi);
        return static_cast<int>(parsed);
    }

    double
    doubleValue(const std::string &flag, double fallback, double lo,
                double hi) const
    {
        const std::string v = value(flag, "");
        if (v.empty())
            return fallback;
        char *end = nullptr;
        errno = 0;
        const double parsed = std::strtod(v.c_str(), &end);
        if (errno != 0 || end == v.c_str() || *end != '\0')
            fatal("flag %s: '%s' is not a number", flag.c_str(),
                  v.c_str());
        if (parsed < lo || parsed > hi)
            fatal("flag %s: %g out of range [%g, %g]", flag.c_str(),
                  parsed, lo, hi);
        return parsed;
    }

    bool
    has(const std::string &flag) const
    {
        bool found = false;
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
            if (tokens_[i] == flag) {
                consumed_[i] = true;
                found = true;
            }
        }
        return found;
    }

    /** fatal() listing every token no flag query consumed. */
    void
    rejectUnknown(const std::string &command) const
    {
        std::string unknown;
        for (std::size_t i = 0; i < tokens_.size(); ++i) {
            if (consumed_[i])
                continue;
            if (!unknown.empty())
                unknown += ' ';
            unknown += tokens_[i];
        }
        if (!unknown.empty())
            fatal("%s: unknown argument(s): %s", command.c_str(),
                  unknown.c_str());
    }

  private:
    std::vector<std::string> tokens_;
    mutable std::vector<bool> consumed_;
};

storage::DiskParams
diskByName(const std::string &name)
{
    if (name == "hdd")
        return storage::makeHddParams();
    if (name == "ssd")
        return storage::makeSsdParams();
    if (name == "nvme")
        return storage::makeNvmeParams();
    fatal("unknown disk type '%s' (hdd|ssd|nvme)", name.c_str());
}

cluster::ClusterConfig
clusterFromArgs(const Args &args)
{
    cluster::ClusterConfig config =
        cluster::ClusterConfig::evaluationCluster();
    config.numSlaves =
        args.intValue("--nodes", config.numSlaves, 1, 100000);
    config.node.hdfsDisk = diskByName(args.value("--hdfs", "ssd"));
    config.node.localDisk = diskByName(args.value("--local", "ssd"));
    config.node.localDiskCount =
        args.intValue("--local-disks", 1, 1, 64);
    // The CLI models the OS page cache by default (real clusters run
    // with it warm); --no-page-cache reproduces the library default,
    // i.e. the paper's drop_caches profiling conditions.
    config.node.pageCache.enabled = !args.has("--no-page-cache");
    config.node.pageCache.capacity =
        static_cast<Bytes>(
            args.intValue("--cache-capacity", 0, 0, INT_MAX)) *
        kMiB;
    config.node.pageCache.dirtyRatio =
        args.doubleValue("--cache-dirty-ratio",
                         config.node.pageCache.dirtyRatio, 0.01, 1.0);
    config.node.pageCache.dirtyBackgroundRatio =
        std::min(config.node.pageCache.dirtyBackgroundRatio,
                 config.node.pageCache.dirtyRatio / 2.0);
    config.node.pageCache.readAhead =
        static_cast<Bytes>(args.intValue(
            "--cache-readahead",
            static_cast<int>(config.node.pageCache.readAhead / kKiB), 0,
            INT_MAX)) *
        kKiB;
    const std::string executor_memory =
        args.value("--executor-memory", "");
    if (!executor_memory.empty()) {
        config.node.executorMemory = parseBytes(executor_memory);
        if (config.node.executorMemory == 0)
            fatal("--executor-memory must be positive");
        if (config.node.executorMemory > config.node.ram)
            fatal("--executor-memory (%s) exceeds node RAM (%s)",
                  formatBytes(config.node.executorMemory).c_str(),
                  formatBytes(config.node.ram).c_str());
    }
    return config;
}

/**
 * Assemble the run's FaultSpec from --fault-spec (a file path if one
 * exists, inline statements otherwise) plus the convenience shorthands
 * --task-fail-rate and --kill-node ID@T.
 */
faults::FaultSpec
faultsFromArgs(const Args &args)
{
    faults::FaultSpec spec;
    const std::string specArg = args.value("--fault-spec", "");
    if (!specArg.empty()) {
        const std::ifstream probe(specArg);
        spec = probe.good()
                   ? faults::FaultSpec::parseFile(specArg)
                   : faults::FaultSpec::parse(specArg, "--fault-spec");
    }
    spec.taskFailureRate = args.doubleValue(
        "--task-fail-rate", spec.taskFailureRate, 0.0, 0.9);
    const std::string kill = args.value("--kill-node", "");
    if (!kill.empty()) {
        const faults::FaultSpec parsed =
            faults::FaultSpec::parse("kill " + kill, "--kill-node");
        for (const faults::NodeEvent &event : parsed.schedule.events())
            spec.schedule.add(event);
    }
    spec.validate();
    return spec;
}

int
cmdList(const Args &args)
{
    setVerbose(args.has("--verbose"));
    args.rejectUnknown("list");
    for (const std::string &name : workloads::registeredWorkloads())
        std::cout << name << "\n";
    return 0;
}

spark::SparkConf
sparkConfFromArgs(const Args &args)
{
    spark::SparkConf conf;
    conf.executorCores = args.intValue("--cores", 36, 1, 4096);
    conf.speculation = args.has("--speculate");
    // The CLI runs the Spark 1.6 unified memory manager by default;
    // --legacy-memory reproduces the seed's static all-or-nothing
    // placement bit-for-bit.
    conf.unifiedMemory = !args.has("--legacy-memory");
    conf.memoryFraction = args.doubleValue(
        "--memory-fraction", conf.memoryFraction, 0.05, 0.95);
    conf.memoryStorageFraction = args.doubleValue(
        "--storage-fraction", conf.memoryStorageFraction, 0.0, 1.0);
    if (!conf.unifiedMemory && (args.has("--memory-fraction") ||
                                args.has("--storage-fraction")))
        fatal("--memory-fraction/--storage-fraction configure the "
              "unified memory manager and conflict with "
              "--legacy-memory");
    return conf;
}

void
printFaultsSummary(const spark::FaultMetrics &f)
{
    std::cout << "\nfaults: " << f.taskFailures << " task crash(es), "
              << f.taskRetries << " retry(ies), " << f.lostAttempts
              << " attempt(s) lost to node death, " << f.fetchFailures
              << " fetch failure(s), " << f.stageReattempts
              << " stage reattempt(s), " << f.hdfsFailovers
              << " HDFS failover(s)\n"
              << "        wasted "
              << formatDuration(secondsToTicks(f.wastedTaskSeconds))
              << " of task work, "
              << formatDuration(secondsToTicks(f.recoverySeconds))
              << " recovering, re-replicated "
              << formatBytes(f.reReplicatedBytes) << ", lost "
              << formatBytes(f.lostDirtyBytes)
              << " of dirty page cache\n"
              << "        " << f.corruptReads
              << " corrupt read(s), quarantined "
              << formatBytes(f.quarantinedBytes) << ", "
              << f.partitionTimeouts
              << " partition timeout(s)\n";
}

void
printMemorySummary(const spark::MemoryMetrics &m)
{
    std::cout << "\nmemory: pool " << formatBytes(m.poolBytes)
              << ", peak storage " << formatBytes(m.peakStorageBytes)
              << ", peak execution "
              << formatBytes(m.peakExecutionBytes) << "\n"
              << "        " << m.evictedBlocks << " eviction(s) ("
              << formatBytes(m.evictedToDiskBytes) << " to disk), "
              << m.droppedBlocks << " block(s) dropped, "
              << m.recomputedPartitions
              << " partition(s) recomputed\n"
              << "        " << m.spills << " spill(s) in "
              << m.spillPasses << " merge pass(es), "
              << formatBytes(m.spilledBytes) << " spilled, "
              << m.oomKills << " OOM kill(s)\n";
}

/** Write @p registry's Prometheus exposition to @p path. */
void
writeMetricsFile(const telemetry::Registry &registry,
                 const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open metrics file '%s'", path.c_str());
    registry.writePrometheus(out);
    std::cout << "wrote " << registry.seriesCount()
              << " metric series (" << registry.familyCount()
              << " families) to " << path << "\n";
}

/**
 * Stream the traced run's per-stage phase attribution through the
 * online bottleneck detector: alerts print to the console, and the
 * detector's stage-share/alert series land in @p registry next to the
 * run's other metrics.
 */
void
publishBottlenecks(telemetry::Registry &registry,
                   const trace::TraceCollector &collector,
                   const cluster::ClusterConfig &config,
                   const spark::SparkConf &conf)
{
    const int core_tracks =
        config.numSlaves *
        std::min(conf.executorCores, config.node.cores);
    const trace::PhaseReport report =
        trace::PhaseReport::build(collector, core_tracks);
    telemetry::BottleneckDetector detector;
    for (const trace::PhaseBreakdown &stage : report.stages)
        for (const telemetry::BottleneckAlert &alert :
             detector.observeStage(stage))
            std::cout << "bottleneck: " << alert.toString() << "\n";
    detector.publish(registry);
}

/** Console summary + optional phase report for a recorded timeline. */
void
printTraceSummary(const trace::TraceCollector &collector,
                  const cluster::ClusterConfig &config,
                  const spark::SparkConf &conf)
{
    // Console-only summary: the metrics JSON stays byte-identical
    // with and without tracing.
    std::cout << "\ntrace: " << collector.size() << " event(s)";
    const char *sep = " — ";
    for (const auto &[category, count] : collector.countsByCategory()) {
        std::cout << sep << category << " " << count;
        sep = ", ";
    }
    std::cout << "\n\n";
    const int core_tracks =
        config.numSlaves *
        std::min(conf.executorCores, config.node.cores);
    const trace::PhaseReport report =
        trace::PhaseReport::build(collector, core_tracks);
    report.write(std::cout);
}

/**
 * Shared back half of `run --jobs-spec` and `run <workload> --pool`:
 * run @p spec through the multi-tenant scheduler and print/emit the
 * combined result.
 */
int
runMultiSpec(const sched::MultiJobSpec &spec, const Args &args)
{
    const cluster::ClusterConfig config = clusterFromArgs(args);
    const spark::SparkConf conf = sparkConfFromArgs(args);
    if (conf.speculation)
        fatal("run: --speculate is not supported by the multi-tenant "
              "scheduler");

    trace::TraceCollector collector;
    telemetry::Registry registry;
    const std::string json_path = args.value("--json", "");
    const std::string perfetto_path = args.value("--perfetto", "");
    const std::string metrics_path = args.value("--metrics-out", "");
    const faults::FaultSpec faultSpec = faultsFromArgs(args);
    args.rejectUnknown("run");

    const workloads::MultiTenantResult result =
        workloads::runMultiTenant(
            spec, config, conf, &faultSpec,
            perfetto_path.empty() ? nullptr : &collector,
            metrics_path.empty() ? nullptr : &registry);

    if (!perfetto_path.empty()) {
        std::ofstream out(perfetto_path);
        if (!out)
            fatal("cannot open perfetto file '%s'",
                  perfetto_path.c_str());
        collector.writeChromeJson(out);
        std::cout << "wrote " << collector.size()
                  << " trace events to " << perfetto_path
                  << " (open at https://ui.perfetto.dev)\n";
    }
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot open json file '%s'", json_path.c_str());
        workloads::writeMultiTenantJson(out, result);
        out << "\n";
    }

    TablePrinter table("multi-tenant on " +
                       std::to_string(config.numSlaves) +
                       " slaves, P=" +
                       std::to_string(conf.executorCores));
    table.setHeader(
        {"tenant", "pool", "jobs", "submitted", "finished",
         "core-time"});
    for (const sched::TenantSummary &tenant : result.tenancy.tenants) {
        table.addRow(
            {tenant.name, tenant.pool, std::to_string(tenant.jobs),
             formatDuration(secondsToTicks(tenant.submitSec)),
             formatDuration(secondsToTicks(tenant.doneSec)),
             formatDuration(secondsToTicks(tenant.coreSeconds))});
    }
    table.print(std::cout);

    TablePrinter pools("Scheduler pools");
    pools.setHeader({"pool", "mode", "weight", "min share",
                     "core-time"});
    for (const sched::PoolSummary &pool : result.tenancy.pools) {
        pools.addRow(
            {pool.name, pool.fair ? "fair" : "fifo",
             TablePrinter::num(pool.weight, 1),
             std::to_string(pool.minShare),
             formatDuration(secondsToTicks(pool.coreSeconds))});
    }
    pools.print(std::cout);
    std::cout << "total: "
              << formatDuration(secondsToTicks(result.seconds))
              << "\n";

    for (const spark::AppMetrics &tenant : result.tenants) {
        if (!tenant.streamingPresent)
            continue;
        const spark::StreamingMetrics &s = tenant.streaming;
        std::cout << "stream " << tenant.name << ": " << s.processed
                  << "/" << s.arrivals << " batch(es), " << s.dropped
                  << " dropped, p50 "
                  << formatDuration(secondsToTicks(s.p50LatencySec))
                  << ", p99 "
                  << formatDuration(secondsToTicks(s.p99LatencySec))
                  << (s.stable() ? ", stable" : ", UNSTABLE") << "\n";
    }

    if (result.pageCachePresent) {
        std::cout << "\n";
        Bytes capacity = config.node.pageCache.capacity;
        if (capacity == 0 &&
            config.node.ram > config.node.executorMemory)
            capacity = config.node.ram - config.node.executorMemory;
        model::writePageCacheReport(std::cout, result.pageCache,
                                    capacity);
    }
    if (result.faultsPresent)
        printFaultsSummary(result.faults);
    if (result.memoryPresent)
        printMemorySummary(result.memory);
    if (!perfetto_path.empty())
        printTraceSummary(collector, config, conf);
    if (!metrics_path.empty()) {
        if (!perfetto_path.empty())
            publishBottlenecks(registry, collector, config, conf);
        writeMetricsFile(registry, metrics_path);
    }
    return 0;
}

/** `doppio run --jobs-spec FILE ...` (no workload positional). */
int
cmdRunMulti(const Args &args)
{
    setVerbose(args.has("--verbose"));
    const std::string spec_path = args.value("--jobs-spec", "");
    if (spec_path.empty())
        fatal("run: expected a workload name or --jobs-spec FILE");
    return runMultiSpec(sched::MultiJobSpec::fromFile(spec_path),
                        args);
}

int
cmdRun(const std::string &name, const Args &args)
{
    setVerbose(args.has("--verbose"));
    const std::string pool = args.value("--pool", "");
    if (!pool.empty()) {
        // Single workload through the multi-tenant scheduler: one
        // tenant in the named pool (fair unless it is the built-in
        // FIFO default pool).
        sched::MultiJobSpec spec;
        if (pool != "default") {
            sched::PoolConfig poolConfig;
            poolConfig.name = pool;
            poolConfig.fair = true;
            spec.pools.push_back(poolConfig);
        }
        sched::TenantSpec tenant;
        tenant.pool = pool;
        if (name.rfind("streaming-", 0) == 0) {
            tenant.kind = sched::TenantSpec::Kind::Stream;
            tenant.workload = name.substr(std::strlen("streaming-"));
        } else {
            tenant.workload = name;
        }
        spec.tenants.push_back(tenant);
        return runMultiSpec(spec, args);
    }
    const auto workload = workloads::makeWorkload(name);
    const cluster::ClusterConfig config = clusterFromArgs(args);
    const spark::SparkConf conf = sparkConfFromArgs(args);

    spark::TaskTrace trace;
    trace::TraceCollector collector;
    telemetry::Registry registry;
    const std::string trace_path = args.value("--trace", "");
    const std::string json_path = args.value("--json", "");
    const std::string perfetto_path = args.value("--perfetto", "");
    const std::string metrics_path = args.value("--metrics-out", "");
    const faults::FaultSpec faultSpec = faultsFromArgs(args);
    args.rejectUnknown("run");

    const spark::AppMetrics metrics =
        workload->run(config, conf, trace_path.empty() ? nullptr : &trace,
                      &faultSpec,
                      perfetto_path.empty() ? nullptr : &collector,
                      metrics_path.empty() ? nullptr : &registry);
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out)
            fatal("cannot open trace file '%s'", trace_path.c_str());
        trace.writeCsv(out);
        std::cout << "wrote " << trace.size() << " task records to "
                  << trace_path << "\n";
    }
    if (!perfetto_path.empty()) {
        std::ofstream out(perfetto_path);
        if (!out)
            fatal("cannot open perfetto file '%s'",
                  perfetto_path.c_str());
        collector.writeChromeJson(out);
        std::cout << "wrote " << collector.size()
                  << " trace events to " << perfetto_path
                  << " (open at https://ui.perfetto.dev)\n";
    }
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot open json file '%s'", json_path.c_str());
        spark::writeMetricsJson(out, metrics);
        out << "\n";
    }

    TablePrinter table(workload->name() + " on " +
                       std::to_string(config.numSlaves) + " slaves, P=" +
                       std::to_string(conf.executorCores));
    table.setHeader({"stage", "tasks", "duration", "read", "write"});
    for (const spark::StageMetrics *stage : metrics.allStages()) {
        table.addRow(
            {stage->name, std::to_string(stage->numTasks),
             formatDuration(stage->endTick - stage->startTick),
             formatBytes(stage->totalBytes(storage::IoKind::Read)),
             formatBytes(stage->totalBytes(storage::IoKind::Write))});
    }
    table.print(std::cout);
    std::cout << "total: "
              << formatDuration(secondsToTicks(metrics.seconds()))
              << "\n";
    if (metrics.pageCachePresent) {
        std::cout << "\n";
        Bytes capacity = config.node.pageCache.capacity;
        if (capacity == 0 &&
            config.node.ram > config.node.executorMemory)
            capacity = config.node.ram - config.node.executorMemory;
        model::writePageCacheReport(std::cout, metrics.pageCache,
                                    capacity);
    }
    if (metrics.faultsPresent)
        printFaultsSummary(metrics.faults);
    if (metrics.memoryPresent)
        printMemorySummary(metrics.memory);
    if (!perfetto_path.empty())
        printTraceSummary(collector, config, conf);
    if (!metrics_path.empty()) {
        if (!perfetto_path.empty())
            publishBottlenecks(registry, collector, config, conf);
        writeMetricsFile(registry, metrics_path);
    }
    return 0;
}

int
cmdProfile(const std::string &name, const Args &args)
{
    setVerbose(args.has("--verbose"));
    const auto workload = workloads::makeWorkload(name);
    const cluster::ClusterConfig config = clusterFromArgs(args);
    model::Profiler::Options options;
    options.fitGc = true;
    options.sampleNodes = config.numSlaves;
    options.gcNodes = config.numSlaves + 1;
    const int cores = args.intValue("--cores", 36, 1, 4096);
    args.rejectUnknown("profile");
    model::Profiler profiler(workload->runner(), config,
                             spark::SparkConf{}, options);
    const model::AppModel app = profiler.fit(workload->name());

    model::ReportOptions report;
    report.numNodes = config.numSlaves;
    report.cores = cores;
    model::writeReport(std::cout, app,
                       model::PlatformProfile::fromNode(config.node),
                       report);
    return 0;
}

int
cmdFio(const Args &args)
{
    setVerbose(args.has("--verbose"));
    const storage::DiskParams params =
        diskByName(args.value("--disk", "hdd"));
    args.rejectUnknown("fio");
    const storage::FioProfiler profiler(params);
    TablePrinter table("Effective bandwidth, " + params.model);
    table.setHeader({"request size", "read", "write", "read IOPS"});
    for (Bytes rs : storage::FioProfiler::defaultSweepSizes()) {
        const auto read = profiler.measure(storage::IoKind::Read, rs);
        const auto write = profiler.measure(storage::IoKind::Write, rs);
        table.addRow({formatBytes(rs), formatBandwidth(read.bandwidth),
                      formatBandwidth(write.bandwidth),
                      TablePrinter::num(read.iops, 0)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdOptimize(const Args &args)
{
    setVerbose(args.has("--verbose"));
    const workloads::Gatk4 gatk4;
    const int workers = args.intValue("--workers", 10, 1, 100000);
    // 0 = one thread per hardware core. Any value yields byte-identical
    // output; --jobs 1 evaluates the grid inline (serial behaviour).
    const int jobs = args.intValue("--jobs", 0, 0, 1024);
    // Constrained modes (DESIGN.md §16): cheapest under a completion
    // deadline, or fastest under a dollar budget. At most one.
    const double deadlineMin =
        args.doubleValue("--deadline", 0.0, 0.0, 1e9);
    const double budgetUsd = args.doubleValue("--budget", 0.0, 0.0, 1e9);
    args.rejectUnknown("optimize");
    if (deadlineMin > 0.0 && budgetUsd > 0.0)
        fatal("optimize: give at most one of --deadline / --budget");
    constexpr Bytes kGB = 1000ULL * 1000 * 1000;

    cluster::ClusterConfig config;
    config.numSlaves = workers;
    config.node.cores = 16;
    config.node.hdfsDisk = cloud::makeCloudDiskParams(
        cloud::CloudDiskType::Standard, 1000 * kGB);
    config.node.localDisk = cloud::makeCloudDiskParams(
        cloud::CloudDiskType::Standard, 2000 * kGB);

    model::Profiler::Options options;
    options.fitGc = true;
    options.highCores = 16;
    options.ssd =
        cloud::makeCloudDiskParams(cloud::CloudDiskType::Ssd,
                                   500 * kGB);
    options.hdd = cloud::makeCloudDiskParams(
        cloud::CloudDiskType::Standard, 500 * kGB);
    model::Profiler profiler(gatk4.runner(), config,
                             spark::SparkConf{}, options);
    const model::AppModel app = profiler.fit("GATK4");

    cloud::CostOptimizer::Options search;
    search.workers = workers;
    search.jobs = jobs;
    const cloud::CostOptimizer optimizer(app, cloud::GcpPricing{},
                                         search);
    const cloud::Advisor advisor(optimizer);

    if (deadlineMin > 0.0 || budgetUsd > 0.0) {
        const cloud::Constraint constraint =
            deadlineMin > 0.0
                ? cloud::Constraint::cheapestUnderDeadline(deadlineMin *
                                                           60.0)
                : cloud::Constraint::fastestUnderBudget(budgetUsd);
        const cloud::ConstrainedResult result =
            optimizer.optimizeConstrained(constraint);
        if (deadlineMin > 0.0)
            std::cout << "constraint: runtime <= "
                      << TablePrinter::num(deadlineMin, 1) << " min\n";
        else
            std::cout << "constraint: cost <= $"
                      << TablePrinter::num(budgetUsd, 2) << "\n";
        if (!result.feasible) {
            std::cout << "no feasible configuration in the grid\n";
        } else {
            std::cout << (deadlineMin > 0.0 ? "cheapest" : "fastest")
                      << ": " << result.best.config.describe() << "  $"
                      << TablePrinter::num(result.best.cost, 2) << " in "
                      << TablePrinter::num(result.best.seconds / 60.0, 1)
                      << " min\n";
        }
        const cloud::SearchStats &s = result.stats;
        std::cout << "search: " << s.cellsTotal << " cells, "
                  << s.cellsEvaluated << " evaluated, " << s.cellsPruned
                  << " pruned, " << s.memoHits << " memo hits, "
                  << s.exhaustiveFallbacks << " fallbacks\n";
        return result.feasible ? 0 : 1;
    }

    const cloud::Evaluation best = optimizer.optimize();
    std::cout << "cheapest: " << best.config.describe() << "  $"
              << TablePrinter::num(best.cost, 2) << " in "
              << TablePrinter::num(best.seconds / 60.0, 1) << " min\n\n";

    TablePrinter table("Runtime/cost Pareto frontier");
    table.setHeader({"configuration", "runtime (min)", "cost ($)"});
    for (const cloud::Evaluation &eval : advisor.paretoFrontier()) {
        table.addRow({eval.config.describe(),
                      TablePrinter::num(eval.seconds / 60.0, 1),
                      TablePrinter::num(eval.cost, 2)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdServe(const Args &args)
{
    setVerbose(args.has("--verbose"));

    service::ServiceConfig config;
    config.planner.sampleNodes =
        args.intValue("--sample-nodes", 3, 1, 64);
    config.planner.defaultWorkers = args.intValue("--workers", 4, 1, 1000);
    config.planner.msPerSimSecond =
        args.doubleValue("--ms-per-sim-sec", 0.02, 1e-6, 1e6);
    config.planner.cellCostMs =
        args.doubleValue("--cell-cost-ms", 5.0, 1e-6, 1e6);
    config.planner.maxRetries = args.intValue("--max-retries", 3, 0, 100);
    config.planner.backoffBaseMs =
        args.doubleValue("--backoff-ms", 50.0, 0.0, 1e6);
    config.planner.evalFailRate =
        args.doubleValue("--eval-fail-rate", 0.0, 0.0, 0.99);
    config.planner.seed = static_cast<std::uint64_t>(
        args.intValue("--service-seed", 42, 0, INT_MAX));
    config.planner.validate = !args.has("--no-validate");
    config.planner.faults = faultsFromArgs(args);
    config.planner.modelStorePath = args.value("--model-store", "");
    config.planner.sweepJobs = args.intValue("--sweep-jobs", 1, 0, 1024);
    config.batchMax = args.intValue("--batch-max", 8, 1, 1024);
    config.breaker.latencyThresholdMs =
        args.doubleValue("--breaker-ms", 15000.0, 1.0, 1e9);
    config.breaker.depthThreshold =
        static_cast<std::size_t>(args.intValue("--breaker-depth", 64, 1,
                                               100000));
    config.breaker.cooldownMs =
        args.doubleValue("--breaker-cooldown-ms", 2000.0, 0.0, 1e9);
    config.queueCapacity = static_cast<std::size_t>(
        args.intValue("--queue-cap", 16, 1, 100000));
    config.dropOldest = !args.has("--reject-new");
    config.ratePerSec = args.doubleValue("--rate", 0.0, 0.0, 1e9);
    config.burst = args.doubleValue("--burst", 32.0, 1.0, 1e9);
    config.workers = args.intValue("--service-workers", 2, 1, 1024);
    config.defaultTimeoutMs =
        args.doubleValue("--timeout-ms", 20000.0, 1.0, 1e12);
    config.cacheCapacity = static_cast<std::size_t>(
        args.intValue("--cache-cap", 256, 1, 100000));

    const std::string scriptPath = args.value("--script", "");
    const std::string transcriptPath = args.value("--transcript", "");
    const std::string statsPath = args.value("--stats-json", "");
    const std::string metricsPath = args.value("--metrics-out", "");
    const std::string postmortemPath = args.value("--postmortem", "");
    const int port = args.intValue("--port", 0, 0, 65535);
    const auto maxRequests = static_cast<std::uint64_t>(
        args.intValue("--max-requests", 0, 0, INT_MAX));
    args.rejectUnknown("serve");

    if (scriptPath.empty() == (port == 0))
        fatal("serve: give exactly one of --script FILE (deterministic "
              "replay) or --port N (TCP loop)");

    service::PlanningService server(config);
    telemetry::FlightRecorder recorder;
    if (!postmortemPath.empty())
        server.setFlightRecorder(&recorder, postmortemPath);
    if (!scriptPath.empty()) {
        std::ifstream in(scriptPath);
        if (!in)
            fatal("serve: cannot read %s", scriptPath.c_str());
        service::Script script;
        std::string line;
        while (std::getline(in, line))
            script.push_back(line);
        const std::vector<std::string> transcript =
            server.runScript(script);
        if (transcriptPath.empty()) {
            for (const std::string &response : transcript)
                std::cout << response << "\n";
        } else {
            std::ofstream out(transcriptPath);
            if (!out)
                fatal("serve: cannot write %s", transcriptPath.c_str());
            for (const std::string &response : transcript)
                out << response << "\n";
        }
    } else {
        std::cerr << "doppio serve: listening on 127.0.0.1:" << port
                  << "\n";
        service::serveTcp(server, port, maxRequests);
    }
    if (!statsPath.empty()) {
        std::ofstream out(statsPath);
        if (!out)
            fatal("serve: cannot write %s", statsPath.c_str());
        out << server.statsJson() << "\n";
    }
    if (!metricsPath.empty()) {
        std::ofstream out(metricsPath);
        if (!out)
            fatal("serve: cannot write %s", metricsPath.c_str());
        out << server.metricsText();
    }
    return 0;
}

int
usage()
{
    std::cerr
        << "usage: doppio <command> [options]\n"
           "  list                          list bundled workloads\n"
           "  run <workload> [options]      simulate and print stages\n"
           "  run --jobs-spec FILE [options]\n"
           "                                multi-tenant run (pools +\n"
           "                                tenant lines; see\n"
           "                                src/sched/jobs_spec.h)\n"
           "  profile <workload> [options]  fit and report the model\n"
           "  fio [--disk hdd|ssd|nvme]     bandwidth sweep\n"
           "  optimize [--workers N] [--jobs J]\n"
           "           [--deadline MIN | --budget USD]\n"
           "                                cloud cost optimization\n"
           "                                (J threads, 0 = all cores;\n"
           "                                output identical for any J).\n"
           "                                --deadline: cheapest config\n"
           "                                finishing within MIN "
           "minutes;\n"
           "                                --budget: fastest config "
           "under\n"
           "                                USD; both answered by "
           "pruned\n"
           "                                branch-and-bound\n"
           "  serve --script FILE [--transcript FILE] "
           "[--stats-json FILE]\n"
           "  serve --port N [--max-requests M] [--stats-json FILE]\n"
           "                                what-if planning service:\n"
           "                                deterministic script "
           "replay, or a\n"
           "                                TCP loop on 127.0.0.1:N\n"
           "        tuning: --workers N --sample-nodes N "
           "--timeout-ms T\n"
           "                --queue-cap N --reject-new "
           "--service-workers N\n"
           "                --rate R --burst B --cache-cap N\n"
           "                --ms-per-sim-sec F --cell-cost-ms F "
           "--no-validate\n"
           "                --eval-fail-rate F --max-retries N "
           "--backoff-ms T\n"
           "                --breaker-ms T --breaker-depth N\n"
           "                --breaker-cooldown-ms T --service-seed S\n"
           "                --fault-spec SPEC (slow-path gray "
           "failures)\n"
           "                --model-store FILE (persist fitted "
           "models\n"
           "                across restarts) --batch-max N (coalesce "
           "up\n"
           "                to N queued same-profile queries; 1 "
           "off)\n"
           "                --sweep-jobs J (threads for batched "
           "sweeps)\n"
           "                --metrics-out FILE (service Prometheus "
           "text)\n"
           "                --postmortem FILE (flight-recorder dump "
           "on\n"
           "                breaker open)\n"
           "options: --nodes N --cores P --hdfs T --local T\n"
           "         --local-disks K --speculate --verbose\n"
           "         --trace FILE               per-task CSV trace\n"
           "         --perfetto FILE            Chrome trace-event "
           "JSON (Perfetto) +\n"
           "                                    per-stage phase "
           "attribution\n"
           "         --json FILE                metrics as JSON\n"
           "         --metrics-out FILE         Prometheus text "
           "exposition (with\n"
           "                                    --perfetto: adds "
           "bottleneck-detector\n"
           "                                    series + console "
           "alerts)\n"
           "         --no-page-cache            direct I/O "
           "(drop_caches conditions)\n"
           "         --cache-capacity MIB       page cache per node "
           "(0 = RAM - heap)\n"
           "         --cache-dirty-ratio F      writer-throttle "
           "fraction (default 0.2)\n"
           "         --cache-readahead KIB      sequential read-ahead "
           "window\n"
           "memory (run):\n"
           "         --executor-memory SIZE     per-node executor "
           "memory (e.g. 90g)\n"
           "         --memory-fraction F        unified pool share of "
           "the executor (default 0.75)\n"
           "         --storage-fraction F       pool share protected "
           "from execution (default 0.5)\n"
           "         --legacy-memory            seed-compatible "
           "all-or-nothing RDD placement\n"
           "multi-tenant (run):\n"
           "         --jobs-spec FILE           pools and tenants on "
           "one shared cluster\n"
           "         --pool NAME                run one workload as a "
           "tenant of pool NAME\n"
           "fault injection (run):\n"
           "         --fault-spec SPEC          fault file, or inline "
           "statements\n"
           "                                    (e.g. 'task-fail-rate "
           "0.02; kill 2@120;\n"
           "                                    degrade-mem 1@60 0.5')\n"
           "         --task-fail-rate F         per-attempt crash "
           "probability\n"
           "         --kill-node ID@T           kill node ID at T "
           "seconds\n"
           "         fault-spec directives: task-fail-rate, "
           "disk-error-rate,\n"
           "           corrupt-rate, fetch-fail-rate, kill/rejoin "
           "N@T,\n"
           "           degrade N@T F, degrade-mem N@T F, slow-node "
           "N@T F,\n"
           "           partition A,..|B,..@T and heal@T\n"
           "         stream lines in --jobs-spec take checkpoint=T "
           "(periodic\n"
           "           state checkpoints; bounds post-failure replay "
           "and\n"
           "           recovery time, 0 = recover by full replay)\n"
           "unknown flags and out-of-range values exit non-zero\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "list")
            return cmdList(Args(argc, argv, 2));
        if (command == "fio")
            return cmdFio(Args(argc, argv, 2));
        if (command == "optimize")
            return cmdOptimize(Args(argc, argv, 2));
        if (command == "serve")
            return cmdServe(Args(argc, argv, 2));
        if (command == "run" && argc >= 3 && argv[2][0] == '-')
            return cmdRunMulti(Args(argc, argv, 2));
        if ((command == "run" || command == "profile") && argc >= 3)
            return command == "run"
                       ? cmdRun(argv[2], Args(argc, argv, 3))
                       : cmdProfile(argv[2], Args(argc, argv, 3));
    } catch (const FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return usage();
}
