#include "bench.h"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cli_runs.h"
#include "service/server.h"
#include "spark/metrics_json.h"
#include "workloads/registry.h"

extern char **environ;

namespace perfbench {

using namespace doppio;

namespace {

using Clock = std::chrono::steady_clock;

double
monotonicSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
countNote(std::size_t n)
{
    return "(median of " + std::to_string(n) + ")";
}

std::string
minNote(std::size_t n)
{
    return "(fastest of " + std::to_string(n) + ")";
}

/**
 * @return the smallest of @p values (0 when empty). The end-to-end
 * timings are fastest calls, not medians: contention from other guests
 * of a shared host only ever slows a call, and it comes and goes within
 * a window, so the fastest call repeats from run to run where the
 * median does not (README, "Run-to-run noise").
 */
double
minimum(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

void
printLine(std::ostream &report, const std::string &name, double value,
          const std::string &unit, const std::string &note)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "  %-28s %14.6g %-10s", name.c_str(),
                  value, unit.c_str());
    report << buf << note << "\n";
}

/**
 * Values measured by one invocation, emitted in catalog order with the
 * catalog's units; a catalog metric the workload does not exercise is
 * reported as 0.
 */
class MetricTable
{
  public:
    void
    set(const std::string &name, double value, const std::string &note = "")
    {
        values_[name] = {value, note};
    }

    void
    emit(const std::vector<MetricDef> &catalog, Outcome &outcome,
         std::ostream &report) const
    {
        for (const MetricDef &def : catalog) {
            const auto it = values_.find(def.name);
            double value = 0.0;
            std::string note = "(not exercised by this workload)";
            if (it != values_.end()) {
                value = it->second.first;
                note = it->second.second;
            }
            if (!std::isfinite(value)) {
                outcome.problems.push_back(std::string("metric ") + def.name +
                                           " is not finite");
                value = 0.0;
            }
            outcome.metrics.push_back({def.name, value, def.unit});
            printLine(report, def.name, value, def.unit, note);
        }
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Record the failed checks of one attempted operation. */
void
noteProblems(Outcome &outcome, const std::vector<std::string> &problems,
             std::ostream &report)
{
    if (problems.empty())
        return;
    ++outcome.failed;
    for (const std::string &problem : problems) {
        report << "CHECK FAILED: " << problem << "\n";
        outcome.problems.push_back(problem);
    }
}

/** Fold a plan session's checks into @p outcome. */
void
noteSession(Outcome &outcome, const SessionResult &session,
            std::ostream &report)
{
    outcome.attempted += session.attempted;
    outcome.failed += session.failed;
    for (const std::string &problem : session.problems) {
        report << "CHECK FAILED: " << problem << "\n";
        outcome.problems.push_back(problem);
    }
}

/**
 * Moves the calling thread to the next CPU of the affinity set it had
 * when constructed, round robin, and restores that set when destroyed.
 * A process left alone stays on one CPU, and on a shared host one CPU
 * can run slow for a whole window while another guest keeps its
 * physical core busy; repetitions spread over every allowed CPU let the
 * fastest call and the median set-up see each CPU's quiet spells.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/**
 * Spawn a fresh copy of the benchmark in --setup-probe mode and
 * @return the seconds from the spawn to the moment the copy reports
 * that it has built what its first timed call needs.
 */
double
probeSetupOnce(const Options &options)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("setup probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string exe = options.executable;
    std::string workload = options.workload;
    std::string seed = std::to_string(options.seed);
    std::string probe = "--setup-probe", one = "1", wflag = "--workload",
                sflag = "--seed";
    char *argv[] = {exe.data(),   probe.data(), one.data(),  wflag.data(),
                    workload.data(), sflag.data(), seed.data(), nullptr};
    pid_t pid = 0;
    const double start = monotonicSeconds();
    const int rc =
        posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("setup probe: cannot spawn " + exe);
    }
    std::string out;
    char buf[64];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty())
        throw std::runtime_error("setup probe failed");
    return std::stod(out) - start;
}

/**
 * Seconds to set up in each of @p options.setupReps fresh processes.
 * The probes are spaced out in time and rotated over the CPUs: the
 * host's speed comes in spells of tens of milliseconds and more, and
 * probes run back to back would all fall in one.
 */
std::vector<double>
probeSetup(const Options &options)
{
    CpuRotation rotation;
    std::vector<double> out;
    for (int i = 0; i < std::max(1, options.setupReps); ++i) {
        if (i > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        rotation.next();
        out.push_back(probeSetupOnce(options));
    }
    return out;
}

void
printFailFrac(const Outcome &outcome, std::ostream &report)
{
    const double frac = outcome.attempted
                            ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 0.0;
    printLine(report, "fail_frac", frac, "ratio",
              "(" + std::to_string(outcome.failed) + " of " +
                  std::to_string(outcome.attempted) + ")");
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// cli-terasort / cli-lr

Outcome
runCliUntraced(const Options &options, std::ostream &report)
{
    Outcome outcome;
    const std::string name = cliWorkloadName(options.workload);

    const std::vector<double> setup = probeSetup(options);
    const auto workload = workloads::makeWorkload(name);
    const cluster::ClusterConfig config = cliClusterConfig(options.seed);
    const spark::SparkConf conf = cliSparkConf();

    std::vector<double> walls;
    std::string firstJson;
    CpuRotation rotation;
    const auto windowStart = Clock::now();
    do {
        rotation.next();
        const auto start = Clock::now();
        const spark::AppMetrics metrics = workload->run(config, conf);
        walls.push_back(secondsSince(start));

        ++outcome.attempted;
        std::vector<std::string> problems =
            checkCliRun(options.workload, metrics, options.seed);
        const std::string json = spark::metricsJson(metrics);
        if (firstJson.empty())
            firstJson = json;
        else if (json != firstJson)
            problems.push_back("run " + std::to_string(walls.size()) +
                               " differs from run 1 of the same seed");
        noteProblems(outcome, problems, report);
    } while (secondsSince(windowStart) < options.seconds);

    report << options.workload << " (" << name << ", CLI defaults, seed "
           << options.seed << ")\n";
    printLine(report, "run_wall_s", median(walls), "s",
              countNote(walls.size()));
    MetricTable table;
    table.set("min_call_ms", minimum(walls) * 1e3, minNote(walls.size()));
    table.set("max_calls_per_s", ratio(1.0, minimum(walls)));
    table.set("setup_s", median(setup), countNote(setup.size()));
    table.set("peak_rss_mb", peakRssMiB());
    table.emit(endToEndMetrics(), outcome, report);
    printFailFrac(outcome, report);
    return outcome;
}

Outcome
runCliTraced(const Options &options, Tracer &tracer, std::ostream &report)
{
    Outcome outcome;
    const std::string name = cliWorkloadName(options.workload);
    const auto workload = workloads::makeWorkload(name);
    const cluster::ClusterConfig config = cliClusterConfig(options.seed);
    const spark::SparkConf conf = cliSparkConf();
    cluster::ClusterConfig noCache = config;
    noCache.node.pageCache.enabled = false;
    spark::SparkConf legacy = conf;
    legacy.unifiedMemory = false;

    std::vector<double> runWall, driverWall, offWall, legacyWall;
    double simSeconds = 0.0;
    double offSimSeconds = 0.0;
    DriverRun driver;
    telemetry::Registry registry;
    const auto windowStart = Clock::now();
    std::uint64_t rep = 0;
    do {
        ++rep;
        // Time one call under a root span named @p span.
        const auto timed = [&](const char *span, auto &&call) {
            const auto start = Clock::now();
            Tracer::Scope scope(tracer, span, rep);
            auto result = call();
            return std::make_pair(std::move(result), secondsSince(start));
        };

        // The run observed through a registry (it also warms the
        // process up), then the timed-path call, then the driver.
        registry = telemetry::Registry();
        const auto observed = timed("bench.run_registry", [&] {
            return workload->run(config, conf, nullptr, nullptr, nullptr,
                                 &registry);
        }).first;
        const auto [plain, plainWall] =
            timed("bench.run", [&] { return workload->run(config, conf); });
        runWall.push_back(plainWall);
        const auto driverStart = Clock::now();
        driver = runDriver(*workload, config, conf, tracer, rep);
        driverWall.push_back(secondsSince(driverStart));

        // Layer cost by ablation.
        const auto [off, offW] = timed("bench.ablation.no_page_cache", [&] {
            return workload->run(noCache, conf);
        });
        offWall.push_back(offW);
        legacyWall.push_back(timed("bench.ablation.legacy_memory", [&] {
                                 return workload->run(config, legacy);
                             }).second);
        simSeconds = plain.seconds();
        offSimSeconds = off.seconds();

        ++outcome.attempted;
        std::vector<std::string> problems =
            checkCliRun(options.workload, plain, options.seed);
        const std::string json = spark::metricsJson(plain);
        if (spark::metricsJson(observed) != json)
            problems.push_back("metrics JSON with a registry differs from "
                               "Workload::run(config, conf)");
        if (spark::metricsJson(driver.metrics) != json)
            problems.push_back("traced driver metrics JSON differs from "
                               "Workload::run(config, conf)");
        noteProblems(outcome, problems, report);
    } while (secondsSince(windowStart) < options.seconds);

    std::vector<double> setupHost;
    std::map<std::uint64_t, double> jobHostByRep;
    for (const Span &span : tracer.spans()) {
        if (span.name == "workloads.setup")
            setupHost.push_back(span.duration());
        else if (span.name == "spark.job")
            jobHostByRep[span.request] += span.duration();
    }
    std::vector<double> jobHost;
    for (const auto &[r, seconds] : jobHostByRep)
        jobHost.push_back(seconds);

    const double wall = median(runWall);
    const LayerCounters layers = layerCounters(registry);
    const std::string n = countNote(runWall.size());
    const auto fired = static_cast<double>(driver.eventsFired);

    MetricTable table;
    table.set("workloads.run_wall_s", wall, n);
    table.set("workloads.sim_s", simSeconds, "(simulated)");
    table.set("workloads.setup_host_s", median(setupHost), n);
    table.set("sim.events_fired", fired);
    table.set("sim.events_scheduled",
              static_cast<double>(driver.eventsScheduled));
    table.set("sim.fired_frac",
              ratio(fired, static_cast<double>(driver.eventsScheduled)));
    table.set("sim.events_per_s", ratio(fired, median(driverWall)), n);
    table.set("oscache.reads", layers.pageCacheReads);
    table.set("oscache.writes", layers.pageCacheWrites);
    table.set("oscache.flush_requests", layers.flushRequests);
    table.set("oscache.throttled_writes", layers.throttledWrites);
    table.set("oscache.hit_ratio", layers.hitRatio);
    table.set("oscache.evicted_bytes", layers.evictedBytes);
    table.set("oscache.host_s", wall - median(offWall),
              "(run wall minus --no-page-cache wall)");
    table.set("oscache.off_wall_s", median(offWall), n);
    table.set("oscache.sim_s_shift", simSeconds - offSimSeconds,
              "(simulated)");
    table.set("storage.requests", layers.storageRequests);
    table.set("storage.busy_s", layers.storageBusySeconds, "(simulated)");
    table.set("storage.mean_request_kib",
              ratio(layers.storageBytes, layers.storageRequests) / 1024.0);
    table.set("spark.jobs", layers.jobs);
    table.set("spark.stages", layers.stages);
    table.set("spark.tasks", layers.tasks);
    table.set("spark.job_host_s", median(jobHost), n);
    table.set("spark.memory.evicted_blocks", layers.evictedBlocks);
    table.set("spark.memory.spilled_bytes", layers.spilledBytes);
    table.set("spark.memory.host_s", wall - median(legacyWall),
              "(run wall minus --legacy-memory wall)");
    table.set("trace.overhead_frac", (median(driverWall) - wall) / wall,
              "(traced driver vs Workload::run)");

    report << options.workload << " (" << name << ", traced, seed "
           << options.seed << ", " << rep << " rep(s))\n";
    table.emit(perLayerMetrics(), outcome, report);

    char buf[200];
    report << "\nbaseline: | doppio run | CLI default (wall) | "
              "--no-page-cache (wall) | sim-seconds shift |\n";
    std::snprintf(buf, sizeof buf,
                  "baseline: | %s | %.3f s | %.3f s (%.0fx) | %.1f vs %.1f |\n",
                  name.c_str(), wall, median(offWall),
                  ratio(wall, median(offWall)), simSeconds, offSimSeconds);
    report << buf;
    printFailFrac(outcome, report);
    return outcome;
}

// ---------------------------------------------------------------------
// plan

Outcome
runPlanUntraced(const Options &options, std::ostream &report)
{
    Outcome outcome;
    const std::vector<double> setup = probeSetup(options);
    const std::vector<PlanQuery> script =
        makePlanScript(options.seed, options.plan);

    std::vector<double> cold, warm, hit;
    // Fastest wall time seen for each query of the script.
    std::vector<double> fastest(script.size(),
                                std::numeric_limits<double>::infinity());
    double wallTotal = 0.0;
    std::uint64_t answered = 0;
    std::vector<std::string> firstTranscript;
    int sessions = 0;
    CpuRotation rotation;
    const auto windowStart = Clock::now();
    do {
        rotation.next();
        const SessionResult session = runPlanSession(script);
        ++sessions;
        noteSession(outcome, session, report);
        if (sessions == 1)
            firstTranscript = session.transcript;
        else if (session.transcript != firstTranscript)
            noteProblems(outcome,
                         {"session " + std::to_string(sessions) +
                          " transcript differs from session 1"},
                         report);
        cold.insert(cold.end(), session.coldMs.begin(), session.coldMs.end());
        warm.insert(warm.end(), session.warmMs.begin(), session.warmMs.end());
        hit.insert(hit.end(), session.hitMs.begin(), session.hitMs.end());
        for (std::size_t i = 0; i < session.queryMs.size(); ++i)
            fastest[i] = std::min(fastest[i], session.queryMs[i]);
        wallTotal += session.wallSeconds;
        answered += session.attempted;
    } while (secondsSince(windowStart) < options.seconds);

    report << "plan (" << script.size() << " queries per session, "
           << sessions << " session(s), seed " << options.seed << ")\n";
    printLine(report, "plan_cold_ms", median(cold), "ms",
              countNote(cold.size()));
    printLine(report, "plan_warm_ms", median(warm), "ms",
              countNote(warm.size()));
    printLine(report, "plan_hit_ms", median(hit), "ms", countNote(hit.size()));
    printLine(report, "plan_qps", ratio(answered, wallTotal), "queries/s", "");
    MetricTable table;
    table.set("min_call_ms", median(fastest),
              "(median over the script's " + std::to_string(script.size()) +
                  " queries of each one's fastest of " +
                  std::to_string(sessions) + ")");
    double fastestTotalMs = 0.0;
    for (const double ms : fastest)
        fastestTotalMs += ms;
    table.set("max_calls_per_s",
              ratio(static_cast<double>(script.size()), fastestTotalMs * 1e-3),
              "(script length over the sum of those)");
    table.set("setup_s", median(setup), countNote(setup.size()));
    table.set("peak_rss_mb", peakRssMiB());
    table.emit(endToEndMetrics(), outcome, report);
    printFailFrac(outcome, report);
    return outcome;
}

Outcome
runPlanTraced(const Options &options, Tracer &tracer, std::ostream &report)
{
    Outcome outcome;
    const std::vector<PlanQuery> script =
        makePlanScript(options.seed, options.plan);

    // Pairs of an untraced and a traced session: their wall difference
    // is the spans' overhead; the traced ones feed the service metrics.
    SessionResult traced;
    std::vector<double> overhead, cold, warm, hit;
    const auto windowStart = Clock::now();
    do {
        const SessionResult plain = runPlanSession(script);
        traced = runPlanSession(script, &tracer,
                                overhead.size() * script.size());
        noteSession(outcome, plain, report);
        noteSession(outcome, traced, report);
        if (traced.transcript != plain.transcript)
            noteProblems(outcome, {"traced session transcript differs"},
                         report);
        overhead.push_back((traced.wallSeconds - plain.wallSeconds) /
                           plain.wallSeconds);
        cold.insert(cold.end(), traced.coldMs.begin(), traced.coldMs.end());
        warm.insert(warm.end(), traced.warmMs.begin(), traced.warmMs.end());
        hit.insert(hit.end(), traced.hitMs.begin(), traced.hitMs.end());
    } while (secondsSince(windowStart) < options.seconds);

    const StagePass pass = runPlanStages(script, traced, tracer);
    ++outcome.attempted;
    std::vector<std::string> passProblems = pass.problems;
    if (pass.layers.pageCacheReads + pass.layers.pageCacheWrites +
            pass.layers.flushRequests !=
        0.0)
        passProblems.push_back("page cache did work under library defaults");
    noteProblems(outcome, passProblems, report);

    const service::ServiceStats &stats = traced.stats;
    const std::string total = "(stage pass total)";
    const auto fired = static_cast<double>(pass.eventsFired);
    MetricTable table;
    table.set("workloads.run_wall_s",
              ratio(pass.driverSeconds, static_cast<double>(pass.simRuns)),
              "(mean per simulator run of the stage pass)");
    table.set("workloads.setup_host_s", pass.setupSeconds, total);
    table.set("sim.events_fired", fired, total);
    table.set("sim.events_scheduled",
              static_cast<double>(pass.eventsScheduled), total);
    table.set("sim.fired_frac",
              ratio(fired, static_cast<double>(pass.eventsScheduled)));
    table.set("sim.events_per_s", ratio(fired, pass.driverSeconds));
    table.set("storage.requests", pass.layers.storageRequests, total);
    table.set("storage.busy_s", pass.layers.storageBusySeconds,
              "(simulated, stage pass total)");
    table.set("storage.mean_request_kib",
              ratio(pass.layers.storageBytes, pass.layers.storageRequests) /
                  1024.0);
    table.set("spark.jobs", pass.layers.jobs, total);
    table.set("spark.stages", pass.layers.stages, total);
    table.set("spark.tasks", pass.layers.tasks, total);
    table.set("spark.job_host_s", pass.jobSeconds, total);
    table.set("model.fit_s", pass.fitSeconds, total);
    table.set("model.sample_runs", static_cast<double>(pass.sampleRuns),
              total);
    table.set("model.error_pct", pass.errorPct,
              "(mean over workloads, at the validated config)");
    table.set("cloud.sweep_s", pass.sweepSeconds, total);
    table.set("cloud.cells_evaluated",
              static_cast<double>(pass.cellsEvaluated), total);
    table.set("cloud.cells_pruned", static_cast<double>(stats.cellsPruned),
              "(service)");
    table.set("cloud.memo_hits", static_cast<double>(stats.cellsMemoHit),
              "(service)");
    table.set("service.cache_hit_ratio", stats.cacheHitRatio);
    table.set("service.slow_path_runs",
              static_cast<double>(stats.slowPathRuns));
    table.set("service.dedup_joins", static_cast<double>(stats.dedupJoins),
              "(one client: nothing to join)");
    table.set("service.batches", static_cast<double>(stats.batches),
              "(one client: nothing to batch)");
    table.set("service.validate_s", pass.validateSeconds, total);
    table.set("service.cold_query_ms", median(cold), countNote(cold.size()));
    table.set("service.warm_query_ms", median(warm), countNote(warm.size()));
    table.set("service.hit_query_ms", median(hit), countNote(hit.size()));
    table.set("trace.overhead_frac", median(overhead),
              "(traced vs untraced session, " + countNote(overhead.size()) +
                  ")");

    report << "plan (traced, " << script.size() << " queries, seed "
           << options.seed << ")\n";
    table.emit(perLayerMetrics(), outcome, report);
    printFailFrac(outcome, report);
    return outcome;
}

} // namespace

void
setUpFirstCall(const Options &options)
{
    if (options.workload == "plan") {
        const std::vector<PlanQuery> script =
            makePlanScript(options.seed, options.plan);
        const service::PlanningService svc{service::ServiceConfig{}};
    } else {
        [[maybe_unused]] const auto workload =
            workloads::makeWorkload(cliWorkloadName(options.workload));
        [[maybe_unused]] const cluster::ClusterConfig config =
            cliClusterConfig(options.seed);
        [[maybe_unused]] const spark::SparkConf conf = cliSparkConf();
    }
    std::printf("%.9f\n", monotonicSeconds());
    std::fflush(stdout);
}

double
Outcome::value(const std::string &name) const
{
    for (const Metric &metric : metrics) {
        if (metric.name == name)
            return metric.value;
    }
    return std::numeric_limits<double>::quiet_NaN();
}

std::string
Outcome::resultJson() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {"cli-terasort", "cli-lr",
                                                   "plan"};
    return names;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"min_call_ms", "ms"},
        {"max_calls_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.run_wall_s", "s"},
        {"workloads.sim_s", "s"},
        {"workloads.setup_host_s", "s"},
        {"sim.events_fired", "count"},
        {"sim.events_scheduled", "count"},
        {"sim.fired_frac", "ratio"},
        {"sim.events_per_s", "1/s"},
        {"oscache.reads", "count"},
        {"oscache.writes", "count"},
        {"oscache.flush_requests", "count"},
        {"oscache.throttled_writes", "count"},
        {"oscache.hit_ratio", "ratio"},
        {"oscache.evicted_bytes", "B"},
        {"oscache.host_s", "s"},
        {"oscache.off_wall_s", "s"},
        {"oscache.sim_s_shift", "s"},
        {"storage.requests", "count"},
        {"storage.busy_s", "s"},
        {"storage.mean_request_kib", "KiB"},
        {"spark.jobs", "count"},
        {"spark.stages", "count"},
        {"spark.tasks", "count"},
        {"spark.job_host_s", "s"},
        {"spark.memory.evicted_blocks", "count"},
        {"spark.memory.spilled_bytes", "B"},
        {"spark.memory.host_s", "s"},
        {"model.fit_s", "s"},
        {"model.sample_runs", "count"},
        {"model.error_pct", "%"},
        {"cloud.sweep_s", "s"},
        {"cloud.cells_evaluated", "count"},
        {"cloud.cells_pruned", "count"},
        {"cloud.memo_hits", "count"},
        {"service.cache_hit_ratio", "ratio"},
        {"service.slow_path_runs", "count"},
        {"service.dedup_joins", "count"},
        {"service.batches", "count"},
        {"service.validate_s", "s"},
        {"service.cold_query_ms", "ms"},
        {"service.warm_query_ms", "ms"},
        {"service.hit_query_ms", "ms"},
        {"trace.overhead_frac", "ratio"},
    };
    return defs;
}

Outcome
runBenchmark(const Options &options, Tracer &tracer, std::ostream &report)
{
    if (options.workload == "plan")
        return options.trace ? runPlanTraced(options, tracer, report)
                             : runPlanUntraced(options, report);
    if (!cliWorkloadName(options.workload).empty())
        return options.trace ? runCliTraced(options, tracer, report)
                             : runCliUntraced(options, report);
    Outcome outcome;
    outcome.problems.push_back("unknown workload " + options.workload);
    return outcome;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
