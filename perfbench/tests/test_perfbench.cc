/**
 * @file
 * Tests of the benchmark itself, on short configurations: the metric
 * catalogs match BENCHMARK.json and every run prints them with their
 * units, spans nest, a budget-starved plan query counts as failed,
 * the output checks accept the reference and reject drift beyond the
 * tolerance, and the traced driver reproduces Workload::run exactly.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cli_runs.h"
#include "plan_runs.h"
#include "reference.h"
#include "spans.h"
#include "spark/metrics_json.h"
#include "telemetry/registry.h"
#include "workloads/registry.h"

using namespace perfbench;
using NameUnit = std::pair<std::string, std::string>;

namespace {

/** (name, unit) of every metric in one BENCHMARK.json list. */
std::vector<NameUnit>
benchmarkJsonMetrics(const std::string &list)
{
    std::ifstream in(PERFBENCH_JSON);
    EXPECT_TRUE(in.good()) << "cannot read " << PERFBENCH_JSON;
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    const std::size_t begin = json.find("\"" + list + "\"");
    EXPECT_NE(begin, std::string::npos) << list;
    const std::size_t end = json.find(']', begin);
    const std::string section = json.substr(begin, end - begin);
    const std::regex entry(
        "\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
    std::vector<NameUnit> out;
    for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
         it != std::sregex_iterator(); ++it)
        out.emplace_back((*it)[1], (*it)[2]);
    return out;
}

std::vector<NameUnit>
catalog(const std::vector<MetricDef> &defs)
{
    std::vector<NameUnit> out;
    for (const MetricDef &def : defs)
        out.emplace_back(def.name, def.unit);
    return out;
}

/** A plan script small enough for a unit test. */
Options
shortPlan(bool trace)
{
    Options options;
    options.workload = "plan";
    options.seed = 3;
    options.seconds = 0;
    options.trace = trace;
    options.executable = PERFBENCH_EXE;
    options.setupReps = 1;
    options.plan.workloads = {"svm"};
    options.plan.warmPerWorkload = 1;
    options.plan.hitsPerWorkload = 1;
    return options;
}

/** Every catalog metric is in the outcome and its result line. */
void
expectPrinted(const Outcome &outcome, const std::vector<MetricDef> &defs)
{
    ASSERT_EQ(outcome.metrics.size(), defs.size());
    const std::string json = outcome.resultJson();
    for (std::size_t i = 0; i < defs.size(); ++i) {
        EXPECT_EQ(outcome.metrics[i].name, defs[i].name);
        EXPECT_EQ(outcome.metrics[i].unit, defs[i].unit);
        const std::string needle = std::string("\"") + defs[i].name +
                                   "\": {\"value\": ";
        const std::size_t at = json.find(needle);
        ASSERT_NE(at, std::string::npos) << defs[i].name;
        EXPECT_NE(json.find(std::string("\"unit\": \"") + defs[i].unit + "\"",
                            at),
                  std::string::npos)
            << defs[i].name;
    }
}

void
expectSpansNest(const Tracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    ASSERT_FALSE(spans.empty());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        EXPECT_LE(span.start, span.end) << span.name;
        EXPECT_GE(tracer.selfSeconds(static_cast<int>(i)), 0.0) << span.name;
        if (span.parent < 0)
            continue;
        ASSERT_LT(span.parent, static_cast<int>(i));
        const Span &parent = spans[static_cast<std::size_t>(span.parent)];
        EXPECT_GE(span.start, parent.start) << span.name;
        EXPECT_LE(span.end, parent.end) << span.name;
    }
}

} // namespace

TEST(Catalog, MatchesBenchmarkJson)
{
    EXPECT_EQ(benchmarkJsonMetrics("end_to_end"), catalog(endToEndMetrics()));
    EXPECT_EQ(benchmarkJsonMetrics("per_layer"), catalog(perLayerMetrics()));
}

TEST(Catalog, NamesAreUnique)
{
    std::set<std::string> seen;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &def : *defs)
            EXPECT_TRUE(seen.insert(def.name).second) << def.name;
    }
}

TEST(PlanRun, UntracedPrintsEveryEndToEndMetric)
{
    Tracer tracer;
    std::ostringstream report;
    const Outcome outcome = runBenchmark(shortPlan(false), tracer, report);
    EXPECT_TRUE(outcome.correct()) << report.str();
    EXPECT_EQ(outcome.attempted, 3u);
    expectPrinted(outcome, endToEndMetrics());
    for (const MetricDef &def : endToEndMetrics())
        EXPECT_GT(outcome.value(def.name), 0.0) << def.name;
    EXPECT_TRUE(tracer.spans().empty());
}

TEST(PlanRun, TracedPrintsEveryPerLayerMetricAndSpansNest)
{
    Tracer tracer;
    std::ostringstream report;
    const Outcome outcome = runBenchmark(shortPlan(true), tracer, report);
    EXPECT_TRUE(outcome.correct()) << report.str();
    expectPrinted(outcome, perLayerMetrics());
    expectSpansNest(tracer);
    // Library defaults: the page cache does no work on the plan path.
    for (const MetricDef &def : perLayerMetrics()) {
        if (std::string(def.name).rfind("oscache.", 0) == 0) {
            EXPECT_EQ(outcome.value(def.name), 0.0) << def.name;
        }
    }
    EXPECT_EQ(outcome.value("model.sample_runs"), 4.0);
    EXPECT_GT(outcome.value("sim.events_fired"), 0.0);
    EXPECT_GT(outcome.value("model.fit_s"), 0.0);
}

TEST(PlanRun, OneMillisecondBudgetCountsAsFailure)
{
    PlanQuery query;
    query.id = "starved";
    query.workload = "svm";
    query.timeoutMs = 1.0;
    const SessionResult session = runPlanSession({query});
    EXPECT_EQ(session.attempted, 1u);
    EXPECT_EQ(session.failed, 1u);
    ASSERT_EQ(session.problems.size(), 1u);
    EXPECT_NE(session.problems[0].find("starved"), std::string::npos);
}

TEST(PlanScript, SeededWithAFixedMix)
{
    const PlanShape shape;
    const std::vector<PlanQuery> a = makePlanScript(7, shape);
    const std::vector<PlanQuery> b = makePlanScript(7, shape);
    const std::vector<PlanQuery> c = makePlanScript(8, shape);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(planLine(a[i], 0.0), planLine(b[i], 0.0));
    const auto kinds = [](const std::vector<PlanQuery> &script) {
        std::vector<int> n(3, 0);
        for (const PlanQuery &q : script)
            ++n[static_cast<int>(q.kind)];
        return n;
    };
    EXPECT_EQ(kinds(a), kinds(c));
    const std::size_t cold = shape.workloads.size();
    EXPECT_EQ(kinds(a),
              (std::vector<int>{static_cast<int>(cold),
                                static_cast<int>(cold) * shape.warmPerWorkload,
                                static_cast<int>(cold) *
                                    shape.hitsPerWorkload}));
    for (std::size_t i = 0; i < cold; ++i)
        EXPECT_EQ(a[i].kind, PlanQuery::Kind::Cold);
}

TEST(Spans, SelfTimeExcludesChildren)
{
    Tracer tracer;
    {
        Tracer::Scope root(tracer, "root", 1);
        for (int i = 0; i < 3; ++i) {
            Tracer::Scope child(tracer, "child", 1);
            volatile double sink = 0.0;
            for (int k = 0; k < 100000; ++k)
                sink = sink + k;
        }
    }
    expectSpansNest(tracer);
    const double children = tracer.totalSeconds("child");
    EXPECT_NEAR(tracer.selfSeconds(0),
                tracer.spans()[0].duration() - children, 1e-9);
    EXPECT_EQ(tracer.spans().size(), 4u);
    std::ostringstream json;
    tracer.writeChromeJson(json);
    EXPECT_NE(json.str().find("\"parent\":0"), std::string::npos);
}

TEST(Spans, CloseOutOfOrderThrows)
{
    Tracer tracer;
    const int outer = tracer.open("outer", 0);
    tracer.open("inner", 0);
    EXPECT_THROW(tracer.close(outer), std::logic_error);
}

TEST(Driver, MetricsJsonEqualsWorkloadRun)
{
    // gatk4 also covers the task-time-variability override.
    for (const char *name : {"lr-small", "gatk4"}) {
        const auto workload = doppio::workloads::makeWorkload(name);
        const auto config = cliClusterConfig(5);
        const auto conf = cliSparkConf();
        const std::string expected =
            doppio::spark::metricsJson(workload->run(config, conf));
        Tracer tracer;
        doppio::telemetry::Registry registry;
        const DriverRun run =
            runDriver(*workload, config, conf, tracer, 1, &registry);
        EXPECT_EQ(doppio::spark::metricsJson(run.metrics), expected) << name;
        EXPECT_GT(run.eventsFired, 0u);
        EXPECT_LE(run.eventsFired, run.eventsScheduled);
        EXPECT_GT(layerCounters(registry).pageCacheReads, 0.0);
        expectSpansNest(tracer);
    }
}

TEST(CliChecks, AcceptReferenceRejectDrift)
{
    const CliReference *ref = findCliReference("cli-lr");
    ASSERT_NE(ref, nullptr);
    ASSERT_GT(ref->seconds.size(), 2u);
    const auto workload = doppio::workloads::makeWorkload("lr-large");
    doppio::spark::AppMetrics metrics =
        workload->run(cliClusterConfig(2), cliSparkConf());
    EXPECT_TRUE(checkCliRun("cli-lr", metrics, 2).empty());

    // Stretch the last stage: 0.4% of the run passes, 2% does not.
    doppio::spark::StageMetrics &last = metrics.jobs.back().stages.back();
    const doppio::Tick total =
        doppio::secondsToTicks(metrics.seconds());
    const doppio::Tick end = last.endTick;
    last.endTick = end + total * 4 / 1000;
    EXPECT_TRUE(checkCliRun("cli-lr", metrics, 2).empty());
    last.endTick = end + total * 20 / 1000;
    EXPECT_FALSE(checkCliRun("cli-lr", metrics, 2).empty());

    // A stage that aborted is an incomplete run.
    last.endTick = end;
    last.fetchFailedSource = 0;
    EXPECT_FALSE(checkCliRun("cli-lr", metrics, 2).empty());
}
