/**
 * @file
 * Tracked performance harness for the simulator hot paths
 * (DESIGN.md §11). Unlike the figure benches, nothing here checks
 * accuracy — every scenario is already covered by golden-output tests
 * elsewhere — this binary only answers "how fast", in numbers stable
 * enough to diff across commits with tools/bench_diff.py:
 *
 *   - event_throughput: self-rescheduling handler chains through the
 *     pooled event queue (events/s).
 *   - fluidpipe_churn_{10,100,5000}: a pipe kept at a constant number
 *     of concurrent flows, each completion starting a replacement, so
 *     every completion pays one progressive-filling rebalance
 *     (flows/s).
 *   - terasort_e2e: full Terasort on the 3-slave bench cluster, wall
 *     seconds.
 *   - optimizer_grid_jobsN: the CLI `optimize` search over the
 *     default grid at --jobs N, wall seconds. It is the process's
 *     first sweep, so it times what `doppio optimize --jobs N` pays:
 *     profiling each grid disk once, plus evaluation. (Identical
 *     output at any --jobs is gated elsewhere, by CI's determinism
 *     job and Optimizer.DeterministicAcrossJobCounts.)
 *
 * Flags: --smoke shrinks every scenario to CI size, --json FILE
 * writes the machine-readable BENCH_perf_core.json record, --jobs N
 * sets the optimizer scenario's threads (0 = one thread per hardware
 * core).
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cloud/optimizer.h"
#include "cloud/profiling.h"
#include "sim/fluid_pipe.h"
#include "sim/simulator.h"
#include "workloads/gatk4.h"
#include "workloads/terasort.h"

using namespace doppio;
using cloud::kGB;

namespace {

/** One measured scenario. */
struct Result
{
    std::string name;
    std::string unit;  //!< "events/s", "flows/s" or "s"
    double value = 0.0;
    double seconds = 0.0; //!< wall clock of the measured region
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Event throughput: @p chains self-rescheduling handlers racing
 * through the queue until @p total events have fired. Exercises the
 * slot pool, the heap and the FIFO tie-break with a live queue depth
 * of @p chains. Two production patterns are baked in: callbacks
 * carry a payload the size of a typical engine completion (a couple
 * of pointers plus counters — larger than std::function's
 * small-buffer), and every firing supersedes a pending timeout
 * (cancel + re-post — exactly what FluidPipe does with its
 * completion event on every membership change), so cancellation cost
 * is measured too.
 */
Result
eventThroughput(std::uint64_t total, int chains)
{
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::uint64_t checksum = 0;
    sim::EventId timeout = 0;
    bool timeout_pending = false;
    struct Payload
    {
        std::uint64_t a, b, c, d;
    };
    std::function<void(Payload)> handler = [&](Payload p) {
        checksum += p.a ^ p.d;
        if (timeout_pending)
            sim.cancel(timeout);
        timeout = sim.schedule(1000, [&] { timeout_pending = false; });
        timeout_pending = true;
        if (++fired + sim.pendingEvents() < total) {
            const Payload next{fired, p.b + 1, p.c, fired * 31};
            sim.schedule(1 + fired % 7, [&, next] { handler(next); });
        }
    };
    const double start = now();
    for (int i = 0; i < chains; ++i) {
        const Payload seedp{static_cast<std::uint64_t>(i), 0, 7, 13};
        sim.schedule(1 + i, [&, seedp] { handler(seedp); });
    }
    sim.run();
    const double elapsed = now() - start;
    if (checksum == 42)
        std::cout << ""; // defeat dead-code elimination
    return {"event_throughput", "events/s",
            static_cast<double>(sim.firedEvents()) / elapsed, elapsed};
}

/**
 * FluidPipe churn: hold @p concurrent flows open on one pipe; every
 * completion immediately starts a replacement until @p total flows
 * have finished. Sizes are staggered so completions interleave and
 * each one triggers a full progressive-filling rebalance at depth
 * @p concurrent. Most flows carry a rate cap below the fair share —
 * the production pattern (every network flow is capped at the
 * sender's NIC rate, batched disk requests at the solo device rate),
 * and the case where rebalancing cost actually matters.
 */
Result
fluidPipeChurn(int concurrent, std::uint64_t total)
{
    sim::Simulator sim;
    const double capacity = 1e9;
    sim::FluidPipe pipe(sim, capacity, "bench");
    // Fair share at full depth; caps sit below it so capped flows
    // release bandwidth every rebalance round.
    const double fair = capacity / concurrent;
    std::uint64_t done = 0;
    std::uint64_t started = 0;
    std::function<void()> completion;
    auto launch = [&] {
        // Stagger sizes (1..2 MB) so completion ticks interleave.
        const Bytes bytes = 1000 * 1000 + (started % 97) * 10000;
        const double cap = (started % 4 == 3)
                               ? std::numeric_limits<double>::infinity()
                               : fair * (0.3 + 0.1 * (started % 5));
        ++started;
        pipe.startFlow(bytes, completion, cap);
    };
    completion = [&] {
        ++done;
        if (started < total)
            launch();
    };
    const double start = now();
    for (int i = 0; i < concurrent; ++i)
        launch();
    sim.run();
    const double elapsed = now() - start;
    return {"fluidpipe_churn_" + std::to_string(concurrent), "flows/s",
            static_cast<double>(done) / elapsed, elapsed};
}

/**
 * End-to-end Terasort: the paper's 930 GiB sort on the 10-slave
 * evaluation cluster (fig12 setup), repeated so the mean is stable
 * against timer noise. Reports mean wall seconds per run.
 */
Result
terasortEndToEnd(bool smoke)
{
    const workloads::Terasort workload;
    cluster::ClusterConfig config =
        cluster::ClusterConfig::evaluationCluster();
    spark::SparkConf conf;
    conf.executorCores = 36;
    const int reps = smoke ? 1 : 5;
    const double start = now();
    for (int i = 0; i < reps; ++i) {
        const spark::AppMetrics metrics = workload.run(config, conf);
        (void)metrics;
    }
    const double elapsed = now() - start;
    return {"terasort_e2e", "s", elapsed / reps, elapsed};
}

/** The CLI `optimize` grid search at a given thread count. */
Result
optimizerGrid(const model::AppModel &app, bool smoke, int jobs)
{
    cloud::CostOptimizer::Options options;
    options.workers = 3;
    options.jobs = jobs;
    if (smoke) {
        options.localTypes = {cloud::CloudDiskType::Standard};
        options.sizeGrid = {100 * kGB, 400 * kGB, 1600 * kGB};
    }
    const cloud::CostOptimizer optimizer(app, cloud::GcpPricing{},
                                         options);
    const double start = now();
    const cloud::Evaluation best = optimizer.optimize();
    const double elapsed = now() - start;
    (void)best;
    return {"optimizer_grid_jobs" + std::to_string(jobs), "s", elapsed,
            elapsed};
}

void
writeJson(const std::string &path, const std::vector<Result> &results,
          bool smoke, int jobs)
{
    std::ofstream os(path);
    os.precision(6);
    os << "{\"bench\":\"perf_core\",\"mode\":\""
       << (smoke ? "smoke" : "full") << "\",\"jobs\":" << jobs
       << ",\"results\":[";
    bool first = true;
    for (const Result &r : results) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << r.name << "\",\"unit\":\"" << r.unit
           << "\",\"value\":" << r.value << ",\"seconds\":"
           << r.seconds << "}";
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::benchFlag(argc, argv, "--smoke");
    const int jobs_arg = bench::benchJobs(argc, argv);
    const int jobs = jobs_arg > 0
                         ? jobs_arg
                         : common::SweepRunner::hardwareJobs();
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json_path = argv[i + 1];
    }

    std::vector<Result> results;
    results.push_back(
        eventThroughput(smoke ? 200'000 : 2'000'000, 64));
    results.push_back(fluidPipeChurn(10, smoke ? 5'000 : 50'000));
    results.push_back(fluidPipeChurn(100, smoke ? 5'000 : 50'000));
    results.push_back(fluidPipeChurn(5000, smoke ? 6'000 : 15'000));
    results.push_back(terasortEndToEnd(smoke));

    const workloads::Gatk4 gatk4;
    const model::AppModel app =
        cloud::fitOnCloud(gatk4.runner(), "GATK4-cloud");
    results.push_back(optimizerGrid(app, smoke, jobs));

    TablePrinter table(std::string("perf_core (") +
                       (smoke ? "smoke" : "full") + ", optimizer @ " +
                       std::to_string(jobs) + " jobs)");
    table.setHeader({"scenario", "value", "unit", "wall (s)"});
    for (const Result &r : results) {
        table.addRow({r.name,
                      TablePrinter::num(r.value, r.unit == "s" ? 3 : 0),
                      r.unit, TablePrinter::num(r.seconds, 3)});
    }
    table.print(std::cout);

    if (!json_path.empty()) {
        writeJson(json_path, results, smoke, jobs);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
