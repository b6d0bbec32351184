/**
 * @file
 * Tests for the multi-tenant scheduling subsystem (src/sched/):
 * fairness invariants (FAIR shares converge to pool weights, FIFO
 * preserves submission order, minShare is honored before the weighted
 * split), the jobs-spec grammar, sweep-parallelism byte-identity, and
 * fault recovery scoped to the affected tenant when multiple jobs are
 * in flight.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "dfs/hdfs.h"
#include "faults/fault_injector.h"
#include "faults/fault_spec.h"
#include "sched/job_scheduler.h"
#include "sched/jobs_spec.h"
#include "sim/simulator.h"
#include "workloads/multi_tenant.h"

namespace doppio {
namespace {

using sched::JobContext;
using sched::JobScheduler;
using sched::MultiJobSpec;
using sched::PoolConfig;
using spark::ActionSpec;
using spark::Rdd;
using spark::RddRef;

/**
 * Shared-cluster harness: 3 slaves at 8 executor cores (24 cluster
 * cores), 1 MiB HDFS blocks so small files still yield many tasks.
 */
struct Harness
{
    sim::Simulator simulator;
    cluster::ClusterConfig config;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<dfs::Hdfs> hdfs;
    std::unique_ptr<JobScheduler> scheduler;

    explicit Harness(int cores = 8)
    {
        config = cluster::ClusterConfig::evaluationCluster();
        config.numSlaves = 3;
        cluster = std::make_unique<cluster::Cluster>(simulator, config);
        dfs::HdfsConfig hdfsConfig;
        hdfsConfig.blockSize = kMiB;
        hdfs = std::make_unique<dfs::Hdfs>(*cluster, hdfsConfig);
        spark::SparkConf conf;
        conf.executorCores = cores;
        scheduler =
            std::make_unique<JobScheduler>(*cluster, *hdfs, conf);
    }

    /** CPU-bound job over @p file: one task per 1 MiB block. */
    void
    submitCpuJob(JobContext &context, const std::string &file,
                 double cpuPerTask)
    {
        RddRef input = context.hadoopFile(file);
        RddRef work = Rdd::narrow(file + ".work", {input}, input->bytes);
        work->cpuPerTask = cpuPerTask;
        JobContext::JobRequest request;
        request.name = file + ".job";
        request.target = work;
        request.action = ActionSpec::count();
        context.submitJob(std::move(request));
    }

    /** Sample both tenants' running tasks at @p seconds. */
    void
    probe(double seconds, std::vector<std::pair<int, int>> &samples)
    {
        simulator.scheduleAt(secondsToTicks(seconds), [this, &samples] {
            samples.emplace_back(scheduler->runningTasks(0),
                                 scheduler->runningTasks(1));
        });
    }
};

// ------------------------------------------------------ fairness

/**
 * Two saturating tenants in FAIR pools of weight 3 and 1 must split
 * the 24 cluster cores 18:6 — within 5% of the weight ratio — once
 * the shares settle.
 */
TEST(Fairness, FairSharesConvergeToWeights)
{
    Harness h;
    PoolConfig heavy;
    heavy.name = "heavy";
    heavy.fair = true;
    heavy.weight = 3.0;
    h.scheduler->definePool(heavy);
    PoolConfig light;
    light.name = "light";
    light.fair = true;
    light.weight = 1.0;
    h.scheduler->definePool(light);

    h.hdfs->addFile("a", 400 * kMiB);
    h.hdfs->addFile("b", 400 * kMiB);
    JobContext &ta = h.scheduler->addTenant("ta", "heavy");
    JobContext &tb = h.scheduler->addTenant("tb", "light");
    h.submitCpuJob(ta, "a", 5.0);
    h.submitCpuJob(tb, "b", 5.0);

    std::vector<std::pair<int, int>> samples;
    for (double t : {21.3, 42.7, 63.1, 84.9})
        h.probe(t, samples);
    h.scheduler->run();

    ASSERT_EQ(samples.size(), 4u);
    for (const auto &[a, b] : samples) {
        EXPECT_EQ(a + b, 24) << "cluster not saturated";
        const double share =
            static_cast<double>(a) / static_cast<double>(a + b);
        EXPECT_NEAR(share, 0.75, 0.05)
            << "weight-3 tenant held " << a << " of " << (a + b);
    }
}

/**
 * A pool's minShare is satisfied before the weighted split: a
 * weight-1/minShare-8 pool keeps 8 cores against a weight-10 rival.
 */
TEST(Fairness, MinShareBeforeWeightedSplit)
{
    Harness h;
    PoolConfig big;
    big.name = "big";
    big.fair = true;
    big.weight = 10.0;
    h.scheduler->definePool(big);
    PoolConfig small;
    small.name = "small";
    small.fair = true;
    small.weight = 1.0;
    small.minShare = 8;
    h.scheduler->definePool(small);

    h.hdfs->addFile("a", 400 * kMiB);
    h.hdfs->addFile("b", 400 * kMiB);
    JobContext &ta = h.scheduler->addTenant("ta", "big");
    JobContext &tb = h.scheduler->addTenant("tb", "small");
    h.submitCpuJob(ta, "a", 5.0);
    h.submitCpuJob(tb, "b", 5.0);

    std::vector<std::pair<int, int>> samples;
    for (double t : {21.3, 42.7, 63.1})
        h.probe(t, samples);
    h.scheduler->run();

    ASSERT_EQ(samples.size(), 3u);
    for (const auto &[a, b] : samples) {
        EXPECT_EQ(a + b, 24);
        // Pure weighted split would leave ~2 cores; minShare floors
        // the pool at 8.
        EXPECT_GE(b, 8) << "minShare violated: " << b << " cores";
    }
}

/**
 * A FIFO pool serves tenants in submission order: while the first
 * tenant has runnable tasks it holds every core, and it finishes
 * first.
 */
TEST(Fairness, FifoPreservesSubmissionOrder)
{
    Harness h;
    h.hdfs->addFile("a", 100 * kMiB);
    h.hdfs->addFile("b", 100 * kMiB);
    JobContext &t0 = h.scheduler->addTenant("t0"); // default FIFO pool
    JobContext &t1 = h.scheduler->addTenant("t1");
    h.submitCpuJob(t0, "a", 5.0);
    h.submitCpuJob(t1, "b", 5.0);

    std::vector<std::pair<int, int>> samples;
    h.probe(2.0, samples);
    h.scheduler->run();

    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].first, 24)
        << "head-of-queue tenant must hold every core";
    EXPECT_EQ(samples[0].second, 0)
        << "second tenant scheduled while the first had runnable work";
    EXPECT_EQ(t0.jobsCompleted(), 1);
    EXPECT_EQ(t1.jobsCompleted(), 1);
    EXPECT_LT(t0.doneTick(), t1.doneTick());
}

// ------------------------------------------------------ jobs spec

TEST(JobsSpec, ParsesPoolsAndTenants)
{
    const MultiJobSpec spec = MultiJobSpec::parse(
        "# comment\n"
        "pool prod fair weight=3 minshare=4\n"
        "pool batch fifo\n"
        "job lr-small pool=prod\n"
        "job terasort pool=batch start=5\n"
        "stream lr rate=0.5 batches=12 backlog=3 slo=20 poisson "
        "batch-mib=32 pool=prod\n");
    ASSERT_EQ(spec.pools.size(), 2u);
    EXPECT_EQ(spec.pools[0].name, "prod");
    EXPECT_TRUE(spec.pools[0].fair);
    EXPECT_DOUBLE_EQ(spec.pools[0].weight, 3.0);
    EXPECT_EQ(spec.pools[0].minShare, 4);
    EXPECT_FALSE(spec.pools[1].fair);
    ASSERT_EQ(spec.tenants.size(), 3u);
    EXPECT_EQ(spec.tenants[0].kind, sched::TenantSpec::Kind::Batch);
    EXPECT_EQ(spec.tenants[0].workload, "lr-small");
    EXPECT_DOUBLE_EQ(spec.tenants[1].startSec, 5.0);
    const sched::TenantSpec &stream = spec.tenants[2];
    EXPECT_EQ(stream.kind, sched::TenantSpec::Kind::Stream);
    EXPECT_DOUBLE_EQ(stream.stream.ratePerSec, 0.5);
    EXPECT_EQ(stream.stream.batches, 12);
    EXPECT_EQ(stream.stream.maxBacklog, 3);
    EXPECT_DOUBLE_EQ(stream.stream.sloSeconds, 20.0);
    EXPECT_TRUE(stream.stream.poisson);
    EXPECT_EQ(stream.batchBytes, 32 * kMiB);
}

TEST(JobsSpec, RejectsMalformedInput)
{
    EXPECT_THROW(MultiJobSpec::parse("frob x"), FatalError);
    EXPECT_THROW(MultiJobSpec::parse("pool p sorta"), FatalError);
    EXPECT_THROW(MultiJobSpec::parse("job lr-small rate=1"),
                 FatalError);
    // A spec with no tenants has nothing to run.
    EXPECT_THROW(MultiJobSpec::parse("pool p fair\n"), FatalError);

    // Non-finite and out-of-range values fail at parse time and name
    // their line (line 2 here) instead of reaching a cast or the run.
    for (const char *line : {
             "job lr-small start=nan",
             "job lr-small start=-1",
             "job lr-small start=1e30",
             "pool q fair weight=nan",
             "pool q fair weight=0",
             "pool q fair minshare=-1",
             "pool q fair minshare=3000000000",
             "stream lr batch-mib=1e30",
             "stream lr batch-mib=-5",
             "stream lr batch-mib=0",
             "stream lr rate=inf",
             "stream lr rate=0",
             "stream lr batches=200000000 rate=1",
             "stream lr batches=3000000000",
             "stream lr batches=0",
             "stream lr backlog=0",
             "stream lr slo=-1",
             "stream lr checkpoint=nan",
         }) {
        const std::string text =
            std::string("job lr-small pool=q\n") + line + "\n" +
            "job lr-small pool=q\n";
        try {
            MultiJobSpec::parse(text);
            ADD_FAILURE() << "accepted: " << line;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("line 2:"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ------------------------------------------------ sweep byte-identity

/**
 * Sweeping multi-tenant runs through SweepRunner must be
 * byte-identical for any --jobs value: each point is an independent
 * simulation, results commit in input order.
 */
TEST(MultiTenantSweep, JobsParallelismIsByteIdentical)
{
    auto render = [](std::size_t i) {
        MultiJobSpec spec;
        PoolConfig pool;
        pool.name = "stream";
        pool.fair = true;
        spec.pools.push_back(pool);
        sched::TenantSpec tenant;
        tenant.kind = sched::TenantSpec::Kind::Stream;
        tenant.workload = "lr";
        tenant.pool = "stream";
        tenant.stream.ratePerSec = 0.25 + 0.25 * static_cast<double>(i);
        tenant.stream.batches = 4;
        spec.tenants.push_back(tenant);

        cluster::ClusterConfig config =
            cluster::ClusterConfig::evaluationCluster();
        config.numSlaves = 2;
        spark::SparkConf conf;
        conf.executorCores = 8;
        const workloads::MultiTenantResult result =
            workloads::runMultiTenant(spec, config, conf);
        std::ostringstream os;
        workloads::writeMultiTenantJson(os, result);
        return os.str();
    };

    const common::SweepRunner serial(1);
    const common::SweepRunner parallel(2);
    const std::vector<std::string> a = serial.map(3, render);
    const std::vector<std::string> b = parallel.map(3, render);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "sweep point " << i;
}

// ------------------------------------------------------ faults

/** Sum of a tenant's per-stage fault counters. */
spark::FaultMetrics
tenantFaults(const JobContext &context)
{
    spark::FaultMetrics total;
    for (const spark::StageMetrics *stage :
         context.appMetrics().allStages())
        total += stage->faults;
    return total;
}

/**
 * Node kill with two jobs in flight: the tenant whose shuffle lost
 * map outputs pays fetch-failure recovery; the narrow-only tenant
 * loses at most its in-flight attempts and never reruns a stage.
 */
TEST(MultiTenantFaults, NodeKillOnlyRerunsAffectedTenantsWork)
{
    // Clean pass to find when tenant B's reduce stage is in flight.
    Tick reduceStart = 0;
    Tick reduceEnd = 0;
    Tick cpuEnd = 0;
    auto build = [](Harness &h, faults::FaultInjector *injector) {
        PoolConfig pa;
        pa.name = "a";
        pa.fair = true;
        h.scheduler->definePool(pa);
        PoolConfig pb;
        pb.name = "b";
        pb.fair = true;
        h.scheduler->definePool(pb);
        if (injector != nullptr) {
            h.scheduler->setFaultInjector(injector);
            injector->arm(*h.cluster);
        }
        h.hdfs->addFile("cpu.in", 200 * kMiB);
        h.hdfs->addFile("shuffle.in", 48 * kMiB);
        JobContext &ta = h.scheduler->addTenant("ta", "a");
        JobContext &tb = h.scheduler->addTenant("tb", "b");
        h.submitCpuJob(ta, "cpu.in", 8.0);

        RddRef input = tb.hadoopFile("shuffle.in");
        spark::ShuffleSpec shuffle;
        shuffle.bytes = 48 * kMiB;
        RddRef reduced = Rdd::shuffled("reduced", input, 12,
                                       48 * kMiB, shuffle);
        // Long reduce tasks so a mid-reduce kill finds fetches and
        // running work to lose.
        reduced->cpuPerInputByte = 2.5e-6;
        JobContext::JobRequest request;
        request.name = "shuffle.job";
        request.target = reduced;
        request.action = ActionSpec::count();
        tb.submitJob(std::move(request));
        return std::pair<JobContext *, JobContext *>{&ta, &tb};
    };

    {
        Harness h;
        auto [ta, tb] = build(h, nullptr);
        h.scheduler->run();
        const auto &job = tb->appMetrics().jobs.front();
        ASSERT_EQ(job.stages.size(), 2u);
        reduceStart = job.stages[1].startTick;
        reduceEnd = job.stages[1].endTick;
        cpuEnd = ta->doneTick();
    }
    const double killAt =
        ticksToSeconds(reduceStart) +
        0.2 * ticksToSeconds(reduceEnd - reduceStart);
    // The narrow tenant must still be mid-job at the kill, or the
    // test would not have two jobs in flight.
    ASSERT_LT(killAt, ticksToSeconds(cpuEnd));

    Harness h;
    faults::FaultSpec spec;
    faults::NodeEvent kill;
    kill.kind = faults::NodeEvent::Kind::Kill;
    kill.node = 1;
    kill.atSeconds = killAt;
    spec.schedule.add(kill);
    faults::FaultInjector injector(spec, h.config.seed);
    auto [ta, tb] = build(h, &injector);
    h.scheduler->run();

    EXPECT_EQ(ta->jobsCompleted(), 1);
    EXPECT_EQ(tb->jobsCompleted(), 1);

    const spark::FaultMetrics fa = tenantFaults(*ta);
    const spark::FaultMetrics fb = tenantFaults(*tb);
    // B lost map outputs: fetch failure, stage reattempt, recovery.
    EXPECT_GT(fb.fetchFailures, 0u);
    EXPECT_GE(fb.stageReattempts, 1u);
    // A had no shuffle: it loses in-flight attempts on the dead node
    // and nothing else — no fetch failures, no stage reruns.
    EXPECT_GT(fa.lostAttempts, 0u);
    EXPECT_EQ(fa.fetchFailures, 0u);
    EXPECT_EQ(fa.stageReattempts, 0u);
    // Every partition of both tenants still completed.
    for (const spark::StageMetrics *stage :
         ta->appMetrics().allStages())
        EXPECT_GE(stage->taskDuration.count(),
                  static_cast<std::uint64_t>(stage->numTasks));
    for (const spark::StageMetrics *stage :
         tb->appMetrics().allStages())
        EXPECT_GE(stage->taskDuration.count(),
                  static_cast<std::uint64_t>(stage->numTasks));
}

} // namespace
} // namespace doppio
