/**
 * @file
 * Extension bench: the pruned constrained-search optimizer and the
 * service's cold-query coalescing (DESIGN.md §16).
 *
 * Part 1 — constrained search, pruned vs exhaustive. A GATK4-style
 * model is fitted once, then a set of deadline/budget constraints
 * spanning infeasible -> tight -> loose is answered on the Fig. 13
 * grid (pd-standard HDFS, {pd-standard, pd-ssd} local, 13-point size
 * axis) and the Fig. 15 grid (pd-ssd local only). Every constraint is
 * solved twice on fresh optimizers — branch-and-bound and the
 * exhaustive reference — and the bench FAILS (non-zero exit) unless
 * the argmin, cost and runtime are byte-identical, pruning touches at
 * most a third of the aggregate grid, and (full mode) the pruned
 * search is at least 2x faster in wall clock. Cells touched is
 * deterministic; wall seconds are the only non-deterministic numbers
 * in the record, so CI gates the deterministic keys and merely tracks
 * the wall keys.
 *
 * Part 2 — cold-query coalescing in the planning service. A burst of
 * same-profile, distinct-constraint cold queries hits one worker with
 * batching off (batchMax 1) and on (batchMax 8). Both runs use the
 * deterministic virtual-time transport, so the queries/s numbers are
 * exact and reproducible; the bench fails unless every query's answer
 * (config, cost, runtime) is identical across the two runs and the
 * batched run has strictly higher cold throughput.
 *
 * Flags: --smoke shrinks the constraint set and burst for CI, --json
 * FILE writes the BENCH_optimizer.json record, --jobs is accepted for
 * interface parity (the searches here are deliberately single-site).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cloud/optimizer.h"
#include "cloud/profiling.h"
#include "common/table_printer.h"
#include "service/server.h"
#include "workloads/gatk4.h"

using namespace doppio;

namespace {

struct Result
{
    std::string name;
    std::string unit; //!< "queries/s", "cells", "s" or "x"
    double value = 0.0;
    double seconds = 0.0; //!< wall or virtual duration of the source
};

double
wallSeconds(const std::chrono::steady_clock::time_point &start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(elapsed).count();
}

/** The two figure grids the constrained searches sweep. */
std::vector<std::pair<std::string, cloud::CostOptimizer::Options>>
figureGrids(bool smoke)
{
    cloud::CostOptimizer::Options fig13; // defaults: hdd + ssd local
    cloud::CostOptimizer::Options fig15;
    fig15.localTypes = {cloud::CloudDiskType::Ssd};
    if (smoke) {
        // Half-resolution size axis for CI: same shape, fewer cells.
        std::vector<Bytes> grid;
        const std::vector<Bytes> full =
            cloud::CostOptimizer::defaultSizeGrid();
        for (std::size_t i = 0; i < full.size(); i += 2)
            grid.push_back(full[i]);
        fig13.sizeGrid = grid;
        fig15.sizeGrid = grid;
    }
    return {{"fig13", fig13}, {"fig15", fig15}};
}

/**
 * Constraints spanning the interesting range, derived from the grid's
 * own extremes so they stay meaningful if the model drifts. The probe
 * runs two exhaustive sweeps, which also profiles every grid disk —
 * so the timed runs measure evaluation, not table building.
 */
std::vector<cloud::Constraint>
constraintSet(const cloud::CostOptimizer &probe, bool smoke)
{
    const double minRuntime =
        probe.optimizeExhaustive(cloud::Constraint::fastestUnderBudget(1e9))
            .best.seconds;
    const double minCost =
        probe.optimizeExhaustive(cloud::Constraint::minCost()).best.cost;
    std::vector<cloud::Constraint> out;
    const std::vector<double> deadlineFactors =
        smoke ? std::vector<double>{1.0, 1.5}
              : std::vector<double>{0.9, 1.0, 1.1, 1.5, 3.0};
    const std::vector<double> budgetFactors =
        smoke ? std::vector<double>{1.1}
              : std::vector<double>{0.9, 1.1, 2.0};
    for (const double f : deadlineFactors)
        out.push_back(
            cloud::Constraint::cheapestUnderDeadline(minRuntime * f));
    for (const double f : budgetFactors)
        out.push_back(cloud::Constraint::fastestUnderBudget(minCost * f));
    return out;
}

int
constrainedScenario(const model::AppModel &app, bool smoke,
                    std::vector<Result> &results)
{
    int violations = 0;
    std::uint64_t cellsTotal = 0;
    std::uint64_t cellsTouched = 0;
    double bnbWall = 0.0;
    double exhWall = 0.0;

    TablePrinter table("constrained search: branch-and-bound vs "
                       "exhaustive (warm tables, cold memo per run)");
    table.setHeader({"grid", "constraints", "cells", "touched",
                     "bnb (s)", "exhaustive (s)"});
    for (const auto &[grid, options] : figureGrids(smoke)) {
        const cloud::CostOptimizer probe(app, cloud::GcpPricing{},
                                         options);
        const std::vector<cloud::Constraint> constraints =
            constraintSet(probe, smoke);
        std::uint64_t gridTotal = 0;
        std::uint64_t gridTouched = 0;
        double gridBnb = 0.0;
        double gridExh = 0.0;
        // A single warm-table search is microseconds; repeat it on a
        // fresh optimizer each round so the timed region is long enough
        // to measure. The optimizers are built outside the timers.
        const int repeats = smoke ? 40 : 200;
        for (const cloud::Constraint &constraint : constraints) {
            // Fresh optimizers after the probe: warm disk tables, cold
            // memo — the steady-state cost of a first-of-its-kind
            // constrained query on a warm service, with the two search
            // strategies as the only difference.
            cloud::ConstrainedResult fast;
            cloud::ConstrainedResult reference;
            for (int rep = 0; rep < repeats; ++rep) {
                const cloud::CostOptimizer pruned(app, cloud::GcpPricing{},
                                                  options);
                auto start = std::chrono::steady_clock::now();
                fast = pruned.optimizeConstrained(constraint);
                gridBnb += wallSeconds(start);

                const cloud::CostOptimizer full(app, cloud::GcpPricing{},
                                                options);
                start = std::chrono::steady_clock::now();
                reference = full.optimizeExhaustive(constraint);
                gridExh += wallSeconds(start);
            }

            // Byte-identity of the argmin is the contract CI diffs.
            if (fast.feasible != reference.feasible) {
                std::cerr << "VIOLATION: feasibility mismatch\n";
                ++violations;
            } else if (fast.feasible &&
                       (fast.best.config.describe() !=
                            reference.best.config.describe() ||
                        fast.best.seconds != reference.best.seconds ||
                        fast.best.cost != reference.best.cost)) {
                std::cerr << "VIOLATION: pruned argmin differs: "
                          << fast.best.config.describe() << " vs "
                          << reference.best.config.describe() << "\n";
                ++violations;
            }
            if (fast.stats.exhaustiveFallbacks != 0) {
                std::cerr << "VIOLATION: unexpected exhaustive "
                             "fallback on a monotone surface\n";
                ++violations;
            }
            gridTotal += fast.stats.cellsTotal;
            gridTouched +=
                fast.stats.cellsTotal - fast.stats.cellsPruned;
        }
        table.addRow({grid, std::to_string(constraints.size()),
                      std::to_string(gridTotal),
                      std::to_string(gridTouched),
                      TablePrinter::num(gridBnb, 2),
                      TablePrinter::num(gridExh, 2)});
        cellsTotal += gridTotal;
        cellsTouched += gridTouched;
        bnbWall += gridBnb;
        exhWall += gridExh;
    }
    table.print(std::cout);

    const double cellsSpeedup = cellsTouched
                                    ? static_cast<double>(cellsTotal) /
                                          static_cast<double>(cellsTouched)
                                    : 0.0;
    const double wallSpeedup = bnbWall > 0.0 ? exhWall / bnbWall : 0.0;
    std::cout << "cells: " << cellsTouched << " touched of "
              << cellsTotal << " (" << TablePrinter::num(cellsSpeedup, 2)
              << "x), wall: " << TablePrinter::num(bnbWall, 2)
              << "s vs " << TablePrinter::num(exhWall, 2) << "s ("
              << TablePrinter::num(wallSpeedup, 2) << "x)\n";

    if (cellsSpeedup < 3.0) {
        std::cerr << "VIOLATION: pruning touched more than a third of "
                     "the grid ("
                  << cellsTouched << "/" << cellsTotal << ")\n";
        ++violations;
    }
    // Wall clock is only asserted in full mode: the committed record
    // documents the >= 2x bar; smoke runs on loaded CI runners where a
    // hard wall assert would flake.
    if (!smoke && wallSpeedup < 2.0) {
        std::cerr << "VIOLATION: constrained search wall speedup "
                  << wallSpeedup << "x < 2x\n";
        ++violations;
    }

    results.push_back({"cells_touched", "cells",
                       static_cast<double>(cellsTouched), bnbWall});
    results.push_back({"cells_total", "cells",
                       static_cast<double>(cellsTotal), exhWall});
    results.push_back({"cells_speedup", "x", cellsSpeedup, 0.0});
    results.push_back({"bnb_wall_s", "s", bnbWall, bnbWall});
    results.push_back({"exhaustive_wall_s", "s", exhWall, exhWall});
    results.push_back({"wall_speedup", "x", wallSpeedup, 0.0});
    return violations;
}

/** Cold same-profile burst: distinct deadlines, one worker. */
service::Script
coldBurstScript(int queries)
{
    service::Script script;
    for (int i = 0; i < queries; ++i) {
        std::ostringstream os;
        // Distinct deadline -> distinct cache key -> no dedup; same
        // workload + fleet -> one shared profile. Generous timeout so
        // even the last query of the unbatched run answers in full.
        os << "{\"id\":\"q" << i
           << "\",\"workload\":\"lr-small\",\"deadline_s\":"
           << 90000 + i << ",\"timeout_ms\":600000,\"at_ms\":" << i
           << "}";
        script.push_back(os.str());
    }
    return script;
}

/** Virtual seconds from first arrival to last plan response. */
double
virtualMakespanSec(const service::PlanningService &svc)
{
    double last = 0.0;
    for (const service::Response &r : svc.responseLog())
        last = std::max(last, r.tMs);
    return last / 1000.0;
}

int
coldThroughputScenario(bool smoke, std::vector<Result> &results)
{
    int violations = 0;
    const int queries = smoke ? 6 : 16;

    service::ServiceConfig base;
    base.planner.seed = 7;
    base.workers = 1;
    base.queueCapacity = 64;
    service::ServiceConfig off = base;
    off.batchMax = 1;

    service::PlanningService batched(base);
    service::PlanningService sequential(off);
    const service::Script script = coldBurstScript(queries);
    batched.runScript(script);
    sequential.runScript(script);

    double qpsBatch = 0.0;
    double qpsSolo = 0.0;
    for (const auto *run :
         {&batched, &sequential}) {
        const service::ServiceStats stats = run->stats();
        if (stats.ok != static_cast<std::uint64_t>(queries)) {
            std::cerr << "VIOLATION: " << stats.ok << "/" << queries
                      << " cold queries answered ok\n";
            ++violations;
        }
    }
    qpsBatch = queries / virtualMakespanSec(batched);
    qpsSolo = queries / virtualMakespanSec(sequential);

    // Same answers either way — coalescing must not change the plan.
    for (int i = 0; i < queries; ++i) {
        std::string id = "q";
        id += std::to_string(i);
        const service::Response *a = nullptr;
        const service::Response *b = nullptr;
        for (const service::Response &r : batched.responseLog())
            if (r.id == id)
                a = &r;
        for (const service::Response &r : sequential.responseLog())
            if (r.id == id)
                b = &r;
        if (a == nullptr || b == nullptr ||
            a->config != b->config || a->costUsd != b->costUsd ||
            a->runtimeSec != b->runtimeSec) {
            std::cerr << "VIOLATION: batched answer differs for " << id
                      << "\n";
            ++violations;
        }
    }
    if (qpsBatch <= qpsSolo) {
        std::cerr << "VIOLATION: batching did not raise cold "
                     "throughput ("
                  << qpsBatch << " <= " << qpsSolo << " queries/s)\n";
        ++violations;
    }
    const service::ServiceStats stats = batched.stats();

    TablePrinter table("cold-query coalescing (virtual time, one "
                       "worker)");
    table.setHeader({"mode", "queries", "queries/s", "batches",
                     "memo hits"});
    table.addRow({"batchMax=1", std::to_string(queries),
                  TablePrinter::num(qpsSolo, 3), "0",
                  std::to_string(sequential.stats().cellsMemoHit)});
    table.addRow({"batchMax=8", std::to_string(queries),
                  TablePrinter::num(qpsBatch, 3),
                  std::to_string(stats.batches),
                  std::to_string(stats.cellsMemoHit)});
    table.print(std::cout);
    std::cout << "cold throughput: " << TablePrinter::num(qpsSolo, 3)
              << " -> " << TablePrinter::num(qpsBatch, 3)
              << " queries/s ("
              << TablePrinter::num(qpsBatch / qpsSolo, 2) << "x)\n";

    results.push_back({"cold_qps_nobatch", "queries/s", qpsSolo,
                       virtualMakespanSec(sequential)});
    results.push_back({"cold_qps_batch", "queries/s", qpsBatch,
                       virtualMakespanSec(batched)});
    results.push_back(
        {"cold_batch_speedup", "x", qpsBatch / qpsSolo, 0.0});
    return violations;
}

void
writeJson(const std::string &path, const std::vector<Result> &results,
          bool smoke, int jobs)
{
    std::ofstream os(path);
    os.precision(6);
    os << "{\"bench\":\"optimizer\",\"mode\":\""
       << (smoke ? "smoke" : "full") << "\",\"jobs\":" << jobs
       << ",\"results\":[";
    bool first = true;
    for (const Result &r : results) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"" << r.name << "\",\"unit\":\"" << r.unit
           << "\",\"value\":" << r.value
           << ",\"seconds\":" << r.seconds << "}";
    }
    os << "]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::benchFlag(argc, argv, "--smoke");
    const int jobs = bench::benchJobs(argc, argv);
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json_path = argv[i + 1];
    }

    // The GATK4 model `doppio optimize` fits.
    const workloads::Gatk4 gatk4;
    const model::AppModel app = cloud::fitOnCloud(gatk4.runner(), "GATK4");

    std::vector<Result> results;
    int violations = constrainedScenario(app, smoke, results);
    std::cout << "\n";
    violations += coldThroughputScenario(smoke, results);

    TablePrinter table(std::string("optimizer record (") +
                       (smoke ? "smoke" : "full") + ")");
    table.setHeader({"name", "value", "unit"});
    for (const Result &r : results)
        table.addRow({r.name, TablePrinter::num(r.value, 3), r.unit});
    std::cout << "\n";
    table.print(std::cout);

    if (!json_path.empty()) {
        writeJson(json_path, results, smoke, jobs);
        std::cout << "wrote " << json_path << "\n";
    }
    if (violations > 0) {
        std::cout << violations << " invariant violation(s)\n";
        return 1;
    }
    return 0;
}
