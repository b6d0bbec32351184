/**
 * @file
 * One benchmark invocation: a workload, a seed, a measuring window,
 * and whether the run is traced.
 *
 * Untraced runs print the end-to-end metrics; traced runs print the
 * per-layer metrics. Both check the program's outputs and count every
 * failed check. See perfbench/README.md for the metric definitions.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "plan_runs.h"
#include "spans.h"

namespace perfbench {

/** What to run. */
struct Options
{
    std::string workload; //!< cli-terasort | cli-lr | plan
    std::uint64_t seed = 1;
    /** Measuring window; at least one call always runs. */
    double seconds = 10.0;
    bool trace = false;
    /**
     * This benchmark's executable. setup_s is measured by spawning it
     * in --setup-probe mode setupReps times.
     */
    std::string executable;
    int setupReps = 31;
    PlanShape plan;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Result of one invocation. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed checks, one line each. */
    std::vector<std::string> problems;
    std::vector<Metric> metrics;

    bool correct() const { return failed == 0 && problems.empty(); }

    /** @return the value of metric @p name (NaN when absent). */
    double value(const std::string &name) const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics":
     * {name: {"value", "unit"}}}, values with all their digits.
     */
    std::string resultJson() const;
};

/** Name and unit of one catalog metric. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics of an untraced run, in output order. */
const std::vector<MetricDef> &endToEndMetrics();

/**
 * Metrics of a traced run, in output order. Every workload prints all
 * of them; a layer the workload does not exercise reads 0.
 */
const std::vector<MetricDef> &perLayerMetrics();

/** The workloads runBenchmark() accepts. */
const std::vector<std::string> &benchWorkloads();

/**
 * Run @p options.workload and @return its outcome. A human-readable
 * report goes to @p report; a traced run records its spans in
 * @p tracer.
 */
Outcome runBenchmark(const Options &options, Tracer &tracer,
                     std::ostream &report);

/**
 * The --setup-probe body: build what the first timed call of
 * @p options.workload needs (workload and CLI configuration, or plan
 * script and PlanningService), then print CLOCK_MONOTONIC seconds.
 */
void setUpFirstCall(const Options &options);

/** @return the median of @p values (0 when empty). */
double median(std::vector<double> values);

/** @return the process's peak resident set size in MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
