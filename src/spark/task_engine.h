/**
 * @file
 * Stage/task execution engine.
 *
 * Executes a StageSpec on the simulated cluster: N nodes x P executor
 * cores pull tasks from a shared queue; each task walks its phase list,
 * alternating device I/O (through the node disks, HDFS and the network)
 * with CPU time. Task compute times carry deterministic lognormal
 * jitter and the stage's GC scaling. Stages are barriers, as in Spark.
 *
 * I/O phases run either as exact per-chunk loops or as aggregated
 * device batches (SparkConf::aggregateIo; see
 * storage::DiskDevice::submitBatch for the equivalence argument).
 */

#ifndef DOPPIO_SPARK_TASK_ENGINE_H
#define DOPPIO_SPARK_TASK_ENGINE_H

#include <functional>
#include <memory>

#include "cluster/cluster.h"
#include "common/random.h"
#include "dfs/hdfs.h"
#include "spark/metrics.h"
#include "spark/spark_conf.h"
#include "spark/stage_spec.h"
#include "spark/task_trace.h"

namespace doppio::faults {
class FaultInjector;
}

namespace doppio::trace {
class TraceCollector;
}

namespace doppio::spark {

class BlockManager;

/**
 * Receives core-scheduling callbacks when stages from several jobs
 * share one engine (multi-tenant mode; see sched::JobScheduler). The
 * engine stops pulling work from a single stage's private queue and
 * instead reports attempt exits and freed cores; the arbiter decides
 * which submitted stage launches next via TaskEngine::tryLaunch.
 */
class CoreArbiter
{
  public:
    virtual ~CoreArbiter() = default;

    /** An attempt of the stage tagged @p tag released a core of
     *  @p node (the single per-attempt exit point). */
    virtual void attemptFinished(int node, int tag) = 0;

    /** A core of @p node may be free; offer it around. */
    virtual void offerCore(int node) = 0;

    /** Capacity or runnable work changed somewhere; offer every free
     *  core (node rejoin, retry becoming runnable, ...). */
    virtual void offerCores() = 0;
};

/** Runs stages to completion on a cluster. */
class TaskEngine
{
  public:
    /** Shared bookkeeping of one executing stage (opaque handle). */
    struct StageRun;
    using StageRef = std::shared_ptr<StageRun>;
    using StageCallback = std::function<void(const StageMetrics &)>;

    TaskEngine(cluster::Cluster &clusterRef, dfs::Hdfs &hdfs,
               const SparkConf &conf);

    /**
     * Execute @p spec to completion (drains the event loop) and
     * @return its metrics. Stages must be run one at a time.
     */
    StageMetrics runStage(const StageSpec &spec);

    /**
     * Attach a core arbiter (or nullptr to detach; not owned).
     * Redirects every internal "pull the next task onto this free
     * core" decision to the arbiter, enabling submitStage().
     */
    void setArbiter(CoreArbiter *arbiter) { arbiter_ = arbiter; }

    /**
     * Multi-tenant submission: set up @p spec without driving the
     * event loop. The stage launches nothing until the arbiter hands
     * it cores through tryLaunch(); @p onDone fires from within the
     * event loop once the stage completes or aborts on a fetch
     * failure (same contract as runStage's return). The run keeps its
     * own copy of @p spec; @p schedTag is echoed verbatim to
     * CoreArbiter::attemptFinished; stage spans go to the driver-track
     * thread @p driverTid (per-job lanes). Requires an arbiter;
     * speculative execution is not supported in this mode.
     */
    StageRef submitStage(const StageSpec &spec, int schedTag,
                         int driverTid, StageCallback onDone);

    /** Launch one queued task of @p run on @p node if possible.
     *  @return true if an attempt was launched (arbiter mode). */
    bool tryLaunch(const StageRef &run, int node);

    /** @return true while @p run has queued tasks wanting a core. */
    bool hasRunnableWork(const StageRef &run) const;

    /** @return executor cores per node actually used (min(P, cores)). */
    int effectiveCores() const;

    /**
     * Attach a task-trace collector (or nullptr to detach). Not
     * owned; must outlive subsequent runStage() calls.
     */
    void setTrace(TaskTrace *trace) { trace_ = trace; }

    /**
     * Attach a telemetry collector (or nullptr to detach; not owned).
     * Stages then emit windows on the driver track, and every attempt
     * occupies a per-node core-slot track carrying its task span and
     * nested phase spans (the input of trace::PhaseReport).
     */
    void setTraceCollector(trace::TraceCollector *collector);

    /**
     * Attach the run's fault injector (or nullptr to detach). Enables
     * per-attempt crash draws, node-loss handling (a cluster liveness
     * observer re-queues a dead node's running tasks without charging
     * spark.task.maxFailures, mirroring executor-loss semantics) and
     * shuffle-fetch failure detection. Not owned.
     */
    void setFaultInjector(faults::FaultInjector *injector);

    /**
     * Attach the unified memory model (or nullptr to detach): shuffle
     * phases reserve execution memory per task through the block
     * manager's per-node pools; a short reservation spills the
     * shortfall through the local disks (external sort), and a failed
     * minimum kills the attempt with a simulated OOM that runs through
     * the retry/blacklist machinery. Not owned.
     */
    void setMemoryModel(BlockManager *blocks) { memory_ = blocks; }

  private:
    struct TaskRun;

    void launchAttempt(std::shared_ptr<StageRun> run, int node,
                       std::size_t index);
    void launchOnFreeCore(std::shared_ptr<StageRun> run, int node);

    /** Retry-queue-then-fresh launch body shared by the single-job
     *  free-core path and the arbiter's tryLaunch.
     *  @return true if an attempt was launched. */
    bool tryLaunchQueued(const std::shared_ptr<StageRun> &run,
                         int node);
    void speculateOnNode(std::shared_ptr<StageRun> run, int node);
    void armSpeculationTimer(std::shared_ptr<StageRun> run);
    void runPhase(std::shared_ptr<StageRun> run,
                  std::shared_ptr<TaskRun> task);
    void runIoPhase(std::shared_ptr<StageRun> run,
                    std::shared_ptr<TaskRun> task,
                    const IoPhaseSpec &phase);

    /** The device/CPU body of an I/O phase (after any memory gate). */
    void startIoPhase(std::shared_ptr<StageRun> run,
                      std::shared_ptr<TaskRun> task,
                      const IoPhaseSpec &phase);

    /**
     * External-sort spill: stream the reservation shortfall out and
     * back through the node's local disks (one round per merge pass),
     * then run the gated phase.
     */
    void runSpill(std::shared_ptr<StageRun> run,
                  std::shared_ptr<TaskRun> task,
                  const IoPhaseSpec &phase, Bytes spillBytes);

    /** Give a task's execution-memory reservation back to its node. */
    void releaseExecutionHold(const std::shared_ptr<TaskRun> &task);

    /**
     * Simulated OOM: the attempt dies, charges maxFailures and
     * blacklists the node; the retry re-queues after a grace period so
     * the pool has a chance to drain first.
     */
    void failOnOom(const std::shared_ptr<StageRun> &run,
                   const std::shared_ptr<TaskRun> &task);

    /** Fill every alive node's free cores from the queues. */
    void kickFreeCores(const std::shared_ptr<StageRun> &run);

    /** One attempt crashed: account, blacklist, re-queue, refill. */
    void failAttempt(const std::shared_ptr<StageRun> &run,
                     const std::shared_ptr<TaskRun> &task);

    /**
     * Single exit point of every attempt: frees the attempt's core
     * (the busyCores decrement), appends its TaskRecord and emits its
     * task span. @p status is "ok" for the winning attempt; everything
     * else ("crash", "oom", "node-loss", "fetch-fail", "stage-abort",
     * "lost-race") marks the attempt's work as wasted.
     */
    void finishAttempt(const std::shared_ptr<StageRun> &run,
                       const std::shared_ptr<TaskRun> &task,
                       const char *status);

    /** Claim the lowest free core-slot track of @p node (tracing). */
    int allocateCoreSlot(int node);

    /** Return a core-slot track (tracing). */
    void releaseCoreSlot(int node, int slot);

    /** A shuffle source died / a fetch failed: abort the stage. */
    void handleFetchFailure(const std::shared_ptr<StageRun> &run,
                            const std::shared_ptr<TaskRun> &task,
                            int source);

    void onNodeDeath(const std::shared_ptr<StageRun> &run, int node);

    /** A device write of @p run drained (stage-barrier accounting). */
    void noteWriteDrained(const std::shared_ptr<StageRun> &run);

    /**
     * Set up the run of @p spec at the current tick (forking the
     * engine RNG once per stage) and register it in activeRuns_. An
     * empty stage gets no task state and is not registered.
     */
    std::shared_ptr<StageRun> startRun(const StageSpec &spec);

    /**
     * End @p run at the current tick: end tick, fetch-failure source
     * and the driver's stage-window span. The span carries "aborted"
     * or "tasks", except for an empty runStage() stage.
     */
    void closeRun(StageRun &run);

    /**
     * Fire a submitted stage's completion callback if it is complete
     * (or aborted on a fetch failure). No-op for runStage() stages
     * and while work is still outstanding.
     */
    void maybeFinishAsync(const std::shared_ptr<StageRun> &run);

    /** Drop @p run (and any expired entries) from activeRuns_. */
    void deregisterRun(const StageRun *run);

    cluster::Cluster &cluster_;
    dfs::Hdfs &hdfs_;
    const SparkConf &conf_;
    Rng rng_;
    TaskTrace *trace_ = nullptr;
    trace::TraceCollector *collector_ = nullptr;
    /**
     * Core-slot track occupancy per node (tracing only). Slots are
     * engine-wide, not per stage: attempts aborted by a stage abort
     * unwind during the rerun, so a node can briefly run more
     * attempts than cores across the boundary — those overflow onto
     * extra slots instead of overlapping an occupied track.
     */
    std::vector<std::vector<bool>> coreSlots_;
    faults::FaultInjector *injector_ = nullptr;
    BlockManager *memory_ = nullptr;
    CoreArbiter *arbiter_ = nullptr;
    bool observerRegistered_ = false;
    /// Stages currently executing (one for runStage(), any number of
    /// submitted stages in arbiter mode), for the liveness observer.
    std::vector<std::weak_ptr<StageRun>> activeRuns_;
};

} // namespace doppio::spark

#endif // DOPPIO_SPARK_TASK_ENGINE_H
