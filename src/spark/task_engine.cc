#include "spark/task_engine.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "common/logging.h"
#include "faults/fault_injector.h"
#include "oscache/page_cache.h"
#include "spark/block_manager.h"
#include "storage/disk_device.h"
#include "trace/trace_collector.h"

namespace doppio::spark {

namespace {

/**
 * Grace period before an OOM-killed task's retry becomes runnable: an
 * immediate relaunch would hit the same saturated pool at the same
 * tick and burn straight through spark.task.maxFailures; by the
 * backoff, running tasks have released their reservations.
 */
constexpr double kOomRetryDelaySec = 0.5;

/** External-sort merge fan-in (spark.shuffle.sort analogue). */
constexpr std::uint64_t kMergeFanIn = 10;

/**
 * Shuffle-fetch retry policy against a network partition: the split
 * looks like a hung connection, not a dead executor, so the client
 * times out and retries with exponential backoff
 * (spark.shuffle.io.maxRetries / retryWait) before reporting a
 * FetchFailure and letting the stage abort.
 */
constexpr int kFetchRetryMax = 3;
constexpr double kFetchRetryBaseSec = 1.0;

/** Number of uniform chunks an I/O phase is split into. */
std::uint64_t
chunkCount(const IoPhaseSpec &phase)
{
    if (phase.bytesPerTask == 0 || phase.requestSize == 0)
        return 0;
    return (phase.bytesPerTask + phase.requestSize - 1) /
           phase.requestSize;
}

/**
 * Sequential per-source-node shuffle fetch for one reducer task: the
 * task's chunks are scattered over every mapper node's local disk; the
 * (single-threaded) task reads one source node's batch, ships the
 * remote portion over the network, then moves to the next source.
 * Keeps itself alive through the pending callbacks; no reference cycle.
 */
struct ShuffleFetch : std::enable_shared_from_this<ShuffleFetch>
{
    cluster::Cluster *cluster = nullptr;
    int readerNode = 0;
    int taskIndex = 0;
    Bytes chunk = 0;
    std::uint64_t count = 0;
    std::uint64_t stream = oscache::kAnonymousStream;
    Bytes offset = 0; //!< cursor within the reducer's stream range
    /// Nodes holding map outputs (all slaves in a healthy run).
    std::vector<int> sources;
    faults::FaultInjector *injector = nullptr;
    std::function<void()> done;
    /// Invoked instead of done when a source is unreachable.
    std::function<void(int)> fetchFailed;
    int k = 0;
    /// Backoff rounds spent against a partition on the current source.
    int backoff = 0;

    void
    next()
    {
        const int nodes = static_cast<int>(sources.size());
        if (k >= nodes) {
            done();
            return;
        }
        const std::uint64_t base = count / static_cast<std::uint64_t>(
            nodes);
        const std::uint64_t extra =
            static_cast<std::uint64_t>(k) <
                    count % static_cast<std::uint64_t>(nodes)
                ? 1
                : 0;
        const std::uint64_t batch = base + extra;
        const int idx = k++;
        if (batch == 0) {
            next();
            return;
        }
        // Task-dependent start offset so concurrent reducers do not
        // convoy on node 0.
        const int src = sources[static_cast<std::size_t>(
            (taskIndex + idx) % nodes)];
        // A partitioned-away source: back off and retry (the split may
        // heal); past the retry budget it is indistinguishable from a
        // dead executor and becomes a FetchFailure.
        if (cluster->nodeAlive(src) &&
            !cluster->network().reachable(src, readerNode)) {
            if (backoff >= kFetchRetryMax) {
                fetchFailed(src);
                return;
            }
            cluster->network().notePartitionTimeout();
            const Tick delay = secondsToTicks(
                kFetchRetryBaseSec * static_cast<double>(1 << backoff));
            ++backoff;
            --k; // re-resolve this source after the wait
            auto self = shared_from_this();
            cluster->simulator().schedule(delay,
                                          [self]() { self->next(); });
            return;
        }
        backoff = 0;
        // A dead source lost its map outputs; a spontaneous fetch
        // failure models the timeout/corruption path. Either way the
        // reducer reports a FetchFailure and the stage aborts.
        if (!cluster->nodeAlive(src) ||
            (injector != nullptr && injector->drawFetchFailure())) {
            fetchFailed(src);
            return;
        }
        const Bytes batch_offset = offset;
        offset += chunk * batch;
        auto self = shared_from_this();
        cluster->node(src).readThrough(
            oscache::Role::Local, storage::IoOp::ShuffleRead, stream,
            batch_offset, chunk, batch, [self, src, batch]() {
                self->cluster->network().transfer(
                    src, self->readerNode, self->chunk * batch,
                    [self]() { self->next(); });
            });
    }
};

/**
 * Exact per-chunk I/O loop (SparkConf::aggregateIo == false): one
 * device request per chunk with the pipelined CPU interleaved, the
 * ground truth that aggregated batches approximate.
 */
struct ChunkLoop : std::enable_shared_from_this<ChunkLoop>
{
    cluster::Cluster *cluster = nullptr;
    dfs::Hdfs *hdfs = nullptr;
    storage::IoOp op = storage::IoOp::HdfsRead;
    int node = 0;
    int taskIndex = 0;
    Bytes chunk = 0;
    std::uint64_t count = 0;
    std::uint64_t stream = oscache::kAnonymousStream;
    Bytes baseOffset = 0;
    Tick cpuPerChunk = 0;
    /// For ShuffleRead: nodes holding map outputs.
    std::vector<int> sources;
    faults::FaultInjector *injector = nullptr;
    std::function<void()> done;
    /// For ShuffleRead: invoked instead of done on an unreachable source.
    std::function<void(int)> fetchFailed;
    /** For write ops: called per chunk handed to the device. */
    std::function<void()> writeIssued;
    /** For write ops: called per chunk drained by the device. */
    std::function<void()> writeDrained;
    std::uint64_t i = 0;
    /// Backoff rounds spent against a partition on the current chunk.
    int backoff = 0;

    void
    next()
    {
        if (i == count) {
            done();
            return;
        }
        const std::uint64_t idx = i++;
        const Bytes offset = baseOffset + idx * chunk;
        auto self = shared_from_this();
        auto then_cpu = [self]() {
            self->cluster->simulator().schedule(
                self->cpuPerChunk, [self]() { self->next(); });
        };
        switch (op) {
          case storage::IoOp::HdfsRead:
            hdfs->readChunk(node, stream, offset, chunk,
                            std::move(then_cpu));
            return;
          case storage::IoOp::ShuffleRead: {
            const int nodes = static_cast<int>(sources.size());
            const int src = sources[static_cast<std::size_t>(
                (taskIndex + static_cast<int>(idx %
                                              static_cast<std::uint64_t>(
                                                  nodes))) %
                nodes)];
            if (cluster->nodeAlive(src) &&
                !cluster->network().reachable(src, node)) {
                // Partitioned-away source: exponential backoff before
                // the FetchFailure (see ShuffleFetch).
                if (backoff >= kFetchRetryMax) {
                    fetchFailed(src);
                    return;
                }
                cluster->network().notePartitionTimeout();
                const Tick delay = secondsToTicks(
                    kFetchRetryBaseSec *
                    static_cast<double>(1 << backoff));
                ++backoff;
                --i; // retry this chunk after the wait
                cluster->simulator().schedule(
                    delay, [self]() { self->next(); });
                return;
            }
            backoff = 0;
            if (!cluster->nodeAlive(src) ||
                (injector != nullptr && injector->drawFetchFailure())) {
                fetchFailed(src);
                return;
            }
            cluster->node(src).readThrough(
                oscache::Role::Local, storage::IoOp::ShuffleRead,
                stream, offset, chunk, 1,
                [self, src, then_cpu = std::move(then_cpu)]() mutable {
                    self->cluster->network().transfer(
                        src, self->node, self->chunk,
                        std::move(then_cpu));
                });
            return;
          }
          case storage::IoOp::PersistRead:
          case storage::IoOp::RawRead:
            cluster->node(node).readThrough(oscache::Role::Local, op,
                                            stream, offset, chunk, 1,
                                            std::move(then_cpu));
            return;
          default: {
            // Writes: serialize (CPU), hand the chunk to the device
            // asynchronously, and continue.
            cluster->simulator().schedule(cpuPerChunk, [self, offset]() {
                self->writeIssued();
                if (self->op == storage::IoOp::HdfsWrite) {
                    self->hdfs->writeChunk(self->node, self->stream,
                                           offset, self->chunk,
                                           self->writeDrained);
                } else {
                    self->cluster->node(self->node).writeThrough(
                        oscache::Role::Local, self->op, self->stream,
                        offset, self->chunk, 1, self->writeDrained);
                }
                self->next();
            });
            return;
          }
        }
    }
};

} // namespace

/** Shared bookkeeping for one executing stage. */
struct TaskEngine::StageRun
{
    /** Per-logical-task attempt state (speculative execution). */
    struct TaskState
    {
        Tick firstLaunch = 0;
        bool launched = false;
        bool done = false;
        bool speculated = false;
        /** Crashes charged against spark.task.maxFailures (node loss
         *  is not charged, matching executor-loss semantics). */
        int failures = 0;
        /** Waiting in StageRun::retries (at most one queue entry). */
        bool retryQueued = false;
        /** Nodes this task crashed on; retries avoid them while an
         *  alive alternative exists. */
        std::vector<int> blacklist;
        /** Live attempts, so the winner can kill the loser. */
        std::vector<std::weak_ptr<TaskRun>> attempts;
        /** When the task (re-)entered the runnable queue, for the
         *  scheduler-wait column of the task trace. */
        Tick readyTick = 0;
        /** Attempts launched so far (1-based attempt numbers). */
        int attemptsLaunched = 0;

        /** @return true while some attempt may still complete. */
        bool hasLiveAttempt() const;
    };

    /** Owned copy of the caller's spec. Attempts of an aborted stage
     *  can unwind (and trace their task spans) from a later stage's
     *  event loop, after the caller's spec — often a recovery/remainder
     *  temporary — is gone; every group pointer below targets this
     *  copy, whose lifetime is the run's. */
    StageSpec spec;
    StageMetrics metrics;
    /// Flattened (group, index-within-group) task list cursor.
    std::vector<std::pair<const TaskGroupSpec *, int>> tasks;
    std::vector<TaskState> states;
    /// Attempts currently occupying a core, per node (for the
    /// periodic speculation check).
    std::vector<int> busyCores;
    sim::EventId speculationTimer = 0;
    bool speculationTimerArmed = false;
    std::size_t nextTask = 0;
    int completed = 0;
    /**
     * Device writes still draining. Writes are asynchronous: a task
     * hands its serialized output to the disk (OS page cache, shuffle
     * writer buffers, the HDFS DataStreamer pipeline) and proceeds,
     * but the stage only completes when the devices have drained —
     * this is the compute/write overlap the paper's pipeline
     * execution model assumes.
     */
    int outstandingWrites = 0;
    double gcFactor = 1.0;
    Rng rng;
    /// Nodes holding this stage's shuffle inputs (alive set at start).
    std::vector<int> shuffleSources;
    /// Failed tasks waiting for a core (retried before fresh tasks).
    std::deque<std::size_t> retries;
    /// Source node of the first fetch failure; >= 0 aborts the stage.
    int fetchFailedSource = -1;
    /// Set on stage abort: free cores stop pulling work.
    bool abortLaunches = false;
    /// Multi-tenant submission (submitStage): completion callback,
    /// the tag echoed to CoreArbiter::attemptFinished, and the driver
    /// track the stage span goes to. Unset for runStage() stages.
    StageCallback onDone;
    int schedTag = 0;
    int driverTid = trace::kTidStages;
};

/** One in-flight task attempt. */
struct TaskEngine::TaskRun
{
    const TaskGroupSpec *group = nullptr;
    int taskIndex = 0; //!< global index within the stage
    int node = 0;
    Tick start = 0;
    std::size_t phase = 0;
    double slowdown = 1.0; //!< jitter x GC factor applied to CPU time
    /** Set when another attempt won the race; the chain unwinds at
     *  the next phase boundary. */
    bool aborted = false;
    /** Pending pure-timer event (dispatch/compute), cancellable. */
    sim::EventId pendingEvent = 0;
    bool hasPendingEvent = false;
    /** Injected crash: the attempt dies when it reaches this phase
     *  boundary (SIZE_MAX = healthy). */
    std::size_t failAtPhase = SIZE_MAX;
    /** Execution memory this attempt holds (unified mode), returned
     *  to the node's pool on every exit path. */
    Bytes executionHeld = 0;
    /** 1-based attempt number of the logical task. */
    int attempt = 1;
    /** Seconds this attempt waited for a core before launching. */
    double schedWaitSec = 0.0;
    /** Core-slot track the attempt occupies (tracing only). */
    int coreSlot = -1;
    /** Why the attempt was aborted, for its task span / TaskRecord.
     *  Set at the abort site; attempts inside device chains carry it
     *  to the phase boundary where they unwind. */
    const char *abortReason = nullptr;
};

bool
TaskEngine::StageRun::TaskState::hasLiveAttempt() const
{
    for (const std::weak_ptr<TaskRun> &weak : attempts) {
        const std::shared_ptr<TaskRun> attempt = weak.lock();
        if (attempt && !attempt->aborted)
            return true;
    }
    return false;
}

TaskEngine::TaskEngine(cluster::Cluster &clusterRef, dfs::Hdfs &hdfs,
                       const SparkConf &conf)
    : cluster_(clusterRef), hdfs_(hdfs), conf_(conf),
      rng_(clusterRef.config().seed ^ 0x7461736bULL /* "task" */)
{}

void
TaskEngine::setTraceCollector(trace::TraceCollector *collector)
{
    collector_ = collector;
    coreSlots_.assign(static_cast<std::size_t>(cluster_.numSlaves()),
                      {});
    if (collector == nullptr)
        return;
    const int cores = effectiveCores();
    for (int node = 0; node < cluster_.numSlaves(); ++node) {
        const int pid = trace::nodePid(node);
        for (int c = 0; c < cores; ++c)
            collector->setThreadName(pid, trace::coreTid(c),
                                     "core " + std::to_string(c));
        collector->setThreadName(pid, trace::kTidMemory, "memory");
    }
}

int
TaskEngine::allocateCoreSlot(int node)
{
    std::vector<bool> &slots =
        coreSlots_[static_cast<std::size_t>(node)];
    for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s]) {
            slots[s] = true;
            return static_cast<int>(s);
        }
    }
    slots.push_back(true);
    const int slot = static_cast<int>(slots.size()) - 1;
    if (slot >= effectiveCores()) {
        // Overflow track: a zombie attempt from an aborted stage still
        // holds its slot while the rerun fills every core.
        collector_->setThreadName(trace::nodePid(node),
                                  trace::coreTid(slot),
                                  "core " + std::to_string(slot) +
                                      " (overflow)");
    }
    return slot;
}

void
TaskEngine::releaseCoreSlot(int node, int slot)
{
    coreSlots_[static_cast<std::size_t>(node)]
              [static_cast<std::size_t>(slot)] = false;
}

void
TaskEngine::finishAttempt(const std::shared_ptr<StageRun> &run,
                          const std::shared_ptr<TaskRun> &task,
                          const char *status)
{
    const Tick now = cluster_.simulator().now();
    --run->busyCores[static_cast<std::size_t>(task->node)];
    if (trace_ != nullptr) {
        trace_->add(TaskRecord{run->metrics.name, task->group->name,
                               task->taskIndex, task->node, task->start,
                               now, task->attempt, status,
                               task->schedWaitSec});
    }
    if (collector_ != nullptr && task->coreSlot >= 0) {
        const bool ok = std::strcmp(status, "ok") == 0;
        collector_->span(trace::nodePid(task->node),
                         trace::coreTid(task->coreSlot),
                         ok ? "task" : "task-lost",
                         task->group->name + " #" +
                             std::to_string(task->taskIndex),
                         task->start, now,
                         trace::TraceArgs()
                             .add("attempt", task->attempt)
                             .add("status", status));
        releaseCoreSlot(task->node, task->coreSlot);
    }
    // Multi-tenant mode: report the core release so the scheduler's
    // own busy accounting stays exact (finishAttempt is the single
    // per-attempt exit, 1:1 with launches).
    if (arbiter_ != nullptr)
        arbiter_->attemptFinished(task->node, run->schedTag);
}

void
TaskEngine::setFaultInjector(faults::FaultInjector *injector)
{
    injector_ = injector;
    if (injector_ == nullptr || observerRegistered_)
        return;
    observerRegistered_ = true;
    cluster_.addLivenessObserver([this](int node, bool alive) {
        if (injector_ == nullptr)
            return;
        // Snapshot: node-death handling can complete a submitted
        // stage, which mutates activeRuns_ mid-iteration.
        std::vector<std::shared_ptr<StageRun>> runs;
        runs.reserve(activeRuns_.size());
        for (const std::weak_ptr<StageRun> &weak : activeRuns_) {
            if (std::shared_ptr<StageRun> run = weak.lock())
                runs.push_back(std::move(run));
        }
        for (const std::shared_ptr<StageRun> &run : runs) {
            if (alive)
                kickFreeCores(run); // rejoined node starts pulling work
            else
                onNodeDeath(run, node);
        }
    });
}

int
TaskEngine::effectiveCores() const
{
    return std::min(conf_.executorCores, cluster_.config().node.cores);
}

std::shared_ptr<TaskEngine::StageRun>
TaskEngine::startRun(const StageSpec &spec)
{
    auto run = std::make_shared<StageRun>();
    run->spec = spec;
    run->metrics.name = spec.name;
    run->metrics.numTasks = spec.numTasks();
    run->metrics.startTick = cluster_.simulator().now();
    run->rng = rng_.fork();
    run->gcFactor = 1.0 + spec.gcSensitivity *
                              static_cast<double>(effectiveCores() - 1);

    for (const TaskGroupSpec &group : run->spec.groups) {
        if (group.count < 0)
            fatal("TaskEngine: negative task count in group %s",
                  group.name.c_str());
        for (int i = 0; i < group.count; ++i)
            run->tasks.emplace_back(&group, i);
    }
    if (run->tasks.empty())
        return run;
    run->states.resize(run->tasks.size());
    for (StageRun::TaskState &state : run->states)
        state.readyTick = run->metrics.startTick;
    run->busyCores.assign(
        static_cast<std::size_t>(cluster_.numSlaves()), 0);
    run->shuffleSources = cluster_.aliveNodes();
    activeRuns_.push_back(run);
    return run;
}

void
TaskEngine::closeRun(StageRun &run)
{
    run.metrics.endTick = cluster_.simulator().now();
    const bool aborted = run.fetchFailedSource >= 0;
    if (aborted)
        run.metrics.fetchFailedSource = run.fetchFailedSource;
    if (collector_ == nullptr)
        return;
    trace::TraceArgs args;
    if (aborted)
        args.add("aborted", 1);
    else if (!run.tasks.empty() || run.onDone)
        args.add("tasks", run.metrics.numTasks);
    collector_->span(trace::kDriverPid, run.driverTid, "stage",
                     run.metrics.name, run.metrics.startTick,
                     run.metrics.endTick, args);
}

StageMetrics
TaskEngine::runStage(const StageSpec &spec)
{
    if (arbiter_ != nullptr)
        fatal("TaskEngine: runStage is the single-job entry point; "
              "with a core arbiter attached use submitStage");
    sim::Simulator &sim = cluster_.simulator();
    const std::shared_ptr<StageRun> run = startRun(spec);
    // An empty stage (all groups zero tasks) is complete as soon as it
    // starts: return valid empty metrics without arming the
    // speculation timer, which would otherwise tick once and advance
    // the clock for no work.
    if (run->tasks.empty()) {
        closeRun(*run);
        return run->metrics;
    }
    if (conf_.speculation)
        armSpeculationTimer(run);

    // Fill executor cores round-robin across nodes (Spark's spread-out
    // placement) so small stages do not pile onto one node's disks;
    // the rest of the queue drains as tasks finish.
    for (int c = 0; c < effectiveCores(); ++c) {
        for (int node = 0; node < cluster_.numSlaves(); ++node)
            launchOnFreeCore(run, node);
    }

    if (injector_ == nullptr) {
        sim.run();
    } else {
        // Under fault injection, stop at stage completion instead of
        // draining the queue: armed node events with later ticks must
        // fire during whichever stage is actually running then (so a
        // mid-shuffle kill hits in-flight fetches), and background
        // repair such as HDFS re-replication overlaps the following
        // stages instead of serializing before them. Leftover events
        // (aborted attempts unwinding, write drains) fire harmlessly
        // in a later stage's loop or in the final drain.
        while (!(run->fetchFailedSource >= 0 ||
                 (run->completed == run->metrics.numTasks &&
                  run->outstandingWrites == 0)) &&
               sim.runOneEvent()) {
        }
    }

    deregisterRun(run.get());
    if (run->speculationTimerArmed)
        panic("TaskEngine: stage %s finished with its speculation "
              "timer still armed",
              spec.name.c_str());
    // A stage aborted on a FetchFailure returns its partial metrics:
    // the scheduler recomputes the lost map outputs and reruns the
    // remainder (see SparkContext::runJob).
    if (run->fetchFailedSource < 0) {
        if (run->completed != run->metrics.numTasks)
            panic("TaskEngine: stage %s finished with %d/%d tasks",
                  spec.name.c_str(), run->completed,
                  run->metrics.numTasks);
        if (run->outstandingWrites != 0)
            panic("TaskEngine: stage %s finished with %d undrained "
                  "writes",
                  spec.name.c_str(), run->outstandingWrites);
    }
    closeRun(*run);
    return run->metrics;
}

void
TaskEngine::launchAttempt(std::shared_ptr<StageRun> run, int node,
                          std::size_t index)
{
    const auto [group, index_in_group] = run->tasks[index];
    auto task = std::make_shared<TaskRun>();
    task->group = group;
    task->taskIndex = static_cast<int>(index);
    task->node = node;
    task->start = cluster_.simulator().now();
    task->slowdown = run->rng.jitter(
                         cluster_.config().taskJitterSigma) *
                     run->gcFactor;
    // Straggler injection (per attempt: a speculative copy on another
    // core can escape the slow environment).
    const double straggler_p = cluster_.config().stragglerProbability;
    if (straggler_p > 0.0 && run->rng.uniform() < straggler_p)
        task->slowdown *= cluster_.config().stragglerSlowdown;
    // Gray failure: a slow node stretches every attempt placed on it
    // (the factor is 1.0 on healthy nodes, which is exact, so fault-
    // free runs are unchanged). A speculative copy elsewhere escapes
    // the slow environment — the signal speculation exists to detect.
    task->slowdown *= cluster_.computeSlowdown(node);

    ++run->metrics.faults.taskAttempts;
    // Injected crash: decided per attempt, the failure point drawn as
    // a phase boundary (dying just before completion wastes the most
    // work). No draws happen when the rate is zero.
    if (injector_ != nullptr && injector_->drawTaskFailure()) {
        task->failAtPhase = static_cast<std::size_t>(
            injector_->drawFailurePhase(group->phases.size()));
    }

    StageRun::TaskState &state =
        run->states[static_cast<std::size_t>(index)];
    if (!state.launched) {
        state.launched = true;
        state.firstLaunch = task->start;
    }
    state.attempts.push_back(task);
    task->attempt = ++state.attemptsLaunched;
    task->schedWaitSec = ticksToSeconds(task->start - state.readyTick);
    if (collector_ != nullptr)
        task->coreSlot = allocateCoreSlot(node);
    ++run->busyCores[static_cast<std::size_t>(node)];

    // Task dispatch overhead (driver round trip, task deserialization).
    TaskRun *raw_task = task.get();
    const sim::EventId event = cluster_.simulator().schedule(
        secondsToTicks(conf_.taskDispatchOverheadSec),
        [this, run = std::move(run), task = std::move(task)]() mutable {
            runPhase(std::move(run), std::move(task));
        });
    raw_task->pendingEvent = event;
    raw_task->hasPendingEvent = true;
}

bool
TaskEngine::tryLaunchQueued(const std::shared_ptr<StageRun> &run,
                            int node)
{
    // Failed tasks retry before fresh work, avoiding blacklisted nodes
    // while an alive alternative exists (with every usable node
    // blacklisted the task must run somewhere, so the list is waived).
    for (std::size_t i = 0; i < run->retries.size(); ++i) {
        const std::size_t index = run->retries[i];
        StageRun::TaskState &state = run->states[index];
        const auto blacklisted = [&state](int candidate) {
            return std::find(state.blacklist.begin(),
                             state.blacklist.end(),
                             candidate) != state.blacklist.end();
        };
        if (blacklisted(node)) {
            bool alternative = false;
            for (int other = 0; other < cluster_.numSlaves(); ++other) {
                if (cluster_.nodeAlive(other) && !blacklisted(other)) {
                    alternative = true;
                    break;
                }
            }
            if (alternative)
                continue;
        }
        run->retries.erase(run->retries.begin() +
                           static_cast<std::ptrdiff_t>(i));
        state.retryQueued = false;
        launchAttempt(run, node, index);
        return true;
    }
    if (run->nextTask < run->tasks.size()) {
        const std::size_t index = run->nextTask++;
        launchAttempt(run, node, index);
        return true;
    }
    return false;
}

void
TaskEngine::launchOnFreeCore(std::shared_ptr<StageRun> run, int node)
{
    if (arbiter_ != nullptr) {
        // Multi-tenant mode: the freed core goes back to the
        // scheduler, which picks the next stage by pool policy.
        arbiter_->offerCore(node);
        return;
    }
    if (run->abortLaunches || !cluster_.nodeAlive(node))
        return;
    if (tryLaunchQueued(run, node))
        return;
    if (conf_.speculation)
        speculateOnNode(std::move(run), node);
}

bool
TaskEngine::tryLaunch(const StageRef &run, int node)
{
    if (run->abortLaunches || !cluster_.nodeAlive(node))
        return false;
    return tryLaunchQueued(run, node);
}

bool
TaskEngine::hasRunnableWork(const StageRef &run) const
{
    return !run->abortLaunches &&
           (!run->retries.empty() || run->nextTask < run->tasks.size());
}

void
TaskEngine::kickFreeCores(const std::shared_ptr<StageRun> &run)
{
    if (arbiter_ != nullptr) {
        // Capacity or runnable work changed; let the scheduler refill
        // every free core across all submitted stages.
        arbiter_->offerCores();
        return;
    }
    const int cores = effectiveCores();
    for (int node = 0; node < cluster_.numSlaves(); ++node) {
        if (!cluster_.nodeAlive(node))
            continue;
        while (run->busyCores[static_cast<std::size_t>(node)] < cores) {
            const int before =
                run->busyCores[static_cast<std::size_t>(node)];
            launchOnFreeCore(run, node);
            if (run->busyCores[static_cast<std::size_t>(node)] ==
                before)
                break; // nothing left to launch here
        }
    }
}

/**
 * Try to launch one speculative copy of a laggard task on @p node
 * (Spark's speculation policy, checked both when cores free up and on
 * the periodic timer).
 */
void
TaskEngine::speculateOnNode(std::shared_ptr<StageRun> run, int node)
{
    const int total = run->metrics.numTasks;
    if (run->completed >= total ||
        run->completed <
            static_cast<int>(conf_.speculationQuantile * total))
        return;
    const double mean = run->metrics.taskDuration.mean();
    if (mean <= 0.0)
        return;
    const Tick now = cluster_.simulator().now();
    for (std::size_t i = 0; i < run->states.size(); ++i) {
        StageRun::TaskState &state = run->states[i];
        if (!state.launched || state.done || state.speculated)
            continue;
        const double elapsed =
            ticksToSeconds(now - state.firstLaunch);
        if (elapsed > conf_.speculationMultiplier * mean) {
            state.speculated = true;
            state.readyTick = now; // the copy becomes runnable here
            launchAttempt(std::move(run), node, i);
            return;
        }
    }
}

/** Arm the recurring speculation check (Spark: spark.speculation
 *  re-evaluates laggards on a timer, not only on completions). */
void
TaskEngine::armSpeculationTimer(std::shared_ptr<StageRun> run)
{
    constexpr double kCheckIntervalSec = 1.0;
    StageRun *raw = run.get();
    raw->speculationTimerArmed = true;
    raw->speculationTimer = cluster_.simulator().schedule(
        secondsToTicks(kCheckIntervalSec),
        [this, run = std::move(run)]() mutable {
            run->speculationTimerArmed = false;
            if (run->completed >= run->metrics.numTasks)
                return;
            const int cores = effectiveCores();
            for (int node = 0; node < cluster_.numSlaves(); ++node) {
                if (!cluster_.nodeAlive(node))
                    continue;
                while (run->busyCores[static_cast<std::size_t>(
                           node)] < cores) {
                    const int before = run->busyCores
                        [static_cast<std::size_t>(node)];
                    speculateOnNode(run, node);
                    if (run->busyCores[static_cast<std::size_t>(
                            node)] == before)
                        break; // nothing launched
                }
            }
            armSpeculationTimer(std::move(run));
        });
}

void
TaskEngine::runPhase(std::shared_ptr<StageRun> run,
                     std::shared_ptr<TaskRun> task)
{
    task->hasPendingEvent = false;
    StageRun::TaskState &state =
        run->states[static_cast<std::size_t>(task->taskIndex)];

    // A losing speculative attempt unwinds at the next phase boundary
    // (in-flight device requests cannot be recalled).
    if (task->aborted ||
        (state.done && task->phase < task->group->phases.size())) {
        releaseExecutionHold(task);
        const int node = task->node;
        finishAttempt(run, task,
                      task->abortReason != nullptr ? task->abortReason
                                                   : "lost-race");
        launchOnFreeCore(std::move(run), node);
        return;
    }

    // Injected crash at this phase boundary (skipped when a twin
    // already finished the task — nothing left to lose).
    if (!state.done && task->phase >= task->failAtPhase) {
        failAttempt(run, task);
        return;
    }

    if (task->phase >= task->group->phases.size()) {
        // Attempt complete; the first attempt of a task wins.
        releaseExecutionHold(task);
        const Tick now = cluster_.simulator().now();
        const bool winner = !state.done;
        finishAttempt(run, task,
                      winner ? "ok"
                             : (task->abortReason != nullptr
                                    ? task->abortReason
                                    : "lost-race"));
        if (!state.done) {
            state.done = true;
            run->metrics.taskDuration.add(
                ticksToSeconds(now - task->start));
            ++run->completed;
            if (run->completed == run->metrics.numTasks &&
                run->speculationTimerArmed) {
                cluster_.simulator().cancel(run->speculationTimer);
                run->speculationTimerArmed = false;
            }
            // Kill the losing attempt outright when it is parked on a
            // cancellable timer (dispatch or pure compute).
            for (const std::weak_ptr<TaskRun> &weak : state.attempts) {
                const std::shared_ptr<TaskRun> other = weak.lock();
                if (!other || other.get() == task.get() ||
                    other->aborted)
                    continue;
                other->aborted = true;
                other->abortReason = "lost-race";
                if (other->hasPendingEvent) {
                    cluster_.simulator().cancel(other->pendingEvent);
                    other->hasPendingEvent = false;
                    releaseExecutionHold(other);
                    finishAttempt(run, other, "lost-race");
                    launchOnFreeCore(run, other->node);
                }
            }
        }
        launchOnFreeCore(run, task->node);
        maybeFinishAsync(run);
        return;
    }

    const PhaseSpec &phase = task->group->phases[task->phase];
    ++task->phase;
    if (const auto *compute = std::get_if<ComputePhaseSpec>(&phase)) {
        // Evaluate the delay before the lambda argument moves `task`
        // (argument evaluation order is unspecified).
        const Tick delay =
            secondsToTicks(compute->seconds * task->slowdown);
        const Tick phase_start = cluster_.simulator().now();
        TaskRun *raw_task = task.get();
        const sim::EventId event = cluster_.simulator().schedule(
            delay, [this, phase_start, run = std::move(run),
                    task = std::move(task)]() mutable {
                if (collector_ != nullptr && task->coreSlot >= 0)
                    collector_->span(trace::nodePid(task->node),
                                     trace::coreTid(task->coreSlot),
                                     "phase", "compute", phase_start,
                                     cluster_.simulator().now());
                runPhase(std::move(run), std::move(task));
            });
        raw_task->pendingEvent = event;
        raw_task->hasPendingEvent = true;
        return;
    }
    runIoPhase(std::move(run), std::move(task),
               std::get<IoPhaseSpec>(phase));
}

void
TaskEngine::runIoPhase(std::shared_ptr<StageRun> run,
                       std::shared_ptr<TaskRun> task,
                       const IoPhaseSpec &phase)
{
    // Unified memory: shuffle phases back their sort buffers and
    // aggregation maps with an execution-memory reservation sized to
    // the phase's data. A short grant spills the shortfall through the
    // local disks first; a zero grant in a contended pool is the
    // simulated OOM.
    if (memory_ != nullptr && phase.bytesPerTask > 0 &&
        (phase.op == storage::IoOp::ShuffleWrite ||
         phase.op == storage::IoOp::ShuffleRead)) {
        const Bytes want = phase.bytesPerTask;
        const int active = std::max(
            1, run->busyCores[static_cast<std::size_t>(task->node)]);
        const Bytes grant =
            memory_->acquireExecution(task->node, want, active);
        task->executionHeld += grant;
        if (grant == 0) {
            ++memory_->memoryCounters().oomKills;
            failOnOom(run, task);
            return;
        }
        if (grant < want) {
            runSpill(std::move(run), std::move(task), phase,
                     want - grant);
            return;
        }
    }
    startIoPhase(std::move(run), std::move(task), phase);
}

void
TaskEngine::runSpill(std::shared_ptr<StageRun> run,
                     std::shared_ptr<TaskRun> task,
                     const IoPhaseSpec &phase, Bytes spillBytes)
{
    // The in-memory buffer fills ceil(want / grant) times, producing
    // that many sorted runs on disk; each merge pass (fan-in
    // kMergeFanIn) re-reads and re-writes the spilled share.
    const Bytes want = phase.bytesPerTask;
    const Bytes grant = want - spillBytes;
    const std::uint64_t sorted_runs = (want + grant - 1) / grant;
    std::uint64_t passes = 0;
    for (std::uint64_t runs = sorted_runs; runs > 1;
         runs = (runs + kMergeFanIn - 1) / kMergeFanIn)
        ++passes;
    passes = std::max<std::uint64_t>(1, passes);

    MemoryMetrics &mem = memory_->memoryCounters();
    ++mem.spills;
    mem.spillPasses += passes;
    mem.spilledBytes += spillBytes;

    const Bytes total = spillBytes * passes;
    const Bytes preferred = std::min<Bytes>(
        total, std::max<Bytes>(1, conf_.diskStoreRequestSize));
    const std::uint64_t count =
        std::max<std::uint64_t>(1, (total + preferred - 1) / preferred);
    const Bytes chunk = std::max<Bytes>(1, total / count);

    StageIoStats &write_stats =
        run->metrics.forOp(storage::IoOp::SpillWrite);
    write_stats.requests += count;
    write_stats.bytes += total;
    write_stats.requestSize.addMany(static_cast<double>(chunk), count);
    StageIoStats &read_stats =
        run->metrics.forOp(storage::IoOp::SpillRead);
    read_stats.requests += count;
    read_stats.bytes += total;
    read_stats.requestSize.addMany(static_cast<double>(chunk), count);

    // Spill files are their own cache stream: written and immediately
    // re-read, so the page cache absorbs what fits of the round trip.
    IoPhaseSpec shape;
    shape.op = storage::IoOp::SpillWrite;
    shape.bytesPerTask = total;
    const std::uint64_t stream = cacheStreamFor(shape);
    const Bytes offset = static_cast<Bytes>(task->taskIndex) * total;
    const int node = task->node;
    const Tick spill_start = cluster_.simulator().now();

    // The sort blocks on its spills: write the runs out, merge them
    // back in, then start the gated phase. The IoPhaseSpec lives in
    // the StageSpec, which outlives the run.
    const IoPhaseSpec *gated = &phase;
    cluster_.node(node).writeThrough(
        oscache::Role::Local, storage::IoOp::SpillWrite, stream, offset,
        chunk, count,
        [this, run, task, gated, node, stream, offset, chunk, count,
         spill_start, spillBytes]() mutable {
            cluster_.node(node).readThrough(
                oscache::Role::Local, storage::IoOp::SpillRead, stream,
                offset, chunk, count,
                [this, run = std::move(run), task = std::move(task),
                 gated, spill_start, spillBytes]() mutable {
                    run->metrics.forOp(storage::IoOp::SpillWrite)
                        .phaseSeconds.add(ticksToSeconds(
                            cluster_.simulator().now() - spill_start));
                    if (collector_ != nullptr && task->coreSlot >= 0)
                        collector_->span(
                            trace::nodePid(task->node),
                            trace::coreTid(task->coreSlot), "phase",
                            "spill", spill_start,
                            cluster_.simulator().now(),
                            trace::TraceArgs().add("bytes",
                                                   spillBytes));
                    startIoPhase(std::move(run), std::move(task),
                                 *gated);
                });
        });
}

void
TaskEngine::releaseExecutionHold(const std::shared_ptr<TaskRun> &task)
{
    if (memory_ == nullptr || task->executionHeld == 0)
        return;
    memory_->releaseExecution(task->node, task->executionHeld);
    task->executionHeld = 0;
}

void
TaskEngine::failOnOom(const std::shared_ptr<StageRun> &run,
                      const std::shared_ptr<TaskRun> &task)
{
    const std::size_t index = static_cast<std::size_t>(task->taskIndex);
    StageRun::TaskState &state = run->states[index];
    const Tick now = cluster_.simulator().now();

    releaseExecutionHold(task);
    ++run->metrics.faults.taskFailures;
    run->metrics.faults.wastedTaskSeconds +=
        ticksToSeconds(now - task->start);
    task->aborted = true;
    if (collector_ != nullptr)
        collector_->instant(trace::nodePid(task->node),
                            trace::kTidMemory, "memory", "oom_kill",
                            now,
                            trace::TraceArgs()
                                .add("task", task->taskIndex)
                                .add("attempt", task->attempt));
    finishAttempt(run, task, "oom");

    ++state.failures;
    if (state.failures >= conf_.taskMaxFailures)
        fatal("TaskEngine: task %d of stage %s could not reserve "
              "execution memory %d times (spark.task.maxFailures), "
              "aborting the application",
              task->taskIndex, run->metrics.name.c_str(),
              state.failures);
    if (cluster_.aliveCount() > 1 &&
        std::find(state.blacklist.begin(), state.blacklist.end(),
                  task->node) == state.blacklist.end())
        state.blacklist.push_back(task->node);

    if (!state.done && !state.retryQueued && !state.hasLiveAttempt()) {
        ++run->metrics.faults.taskRetries;
        state.retryQueued = true;
        state.launched = false;
        cluster_.simulator().schedule(
            secondsToTicks(kOomRetryDelaySec),
            [this, run, index]() {
                run->states[index].readyTick =
                    cluster_.simulator().now();
                run->retries.push_back(index);
                kickFreeCores(run);
            });
    }
    kickFreeCores(run);
}

void
TaskEngine::startIoPhase(std::shared_ptr<StageRun> run,
                         std::shared_ptr<TaskRun> task,
                         const IoPhaseSpec &phase)
{
    const std::uint64_t count = chunkCount(phase);
    if (count == 0) {
        runPhase(std::move(run), std::move(task));
        return;
    }
    const Bytes chunk = phase.bytesPerTask / count;

    // Stage-scoped iostat-style accounting (logical requests).
    StageIoStats &io_stats = run->metrics.forOp(phase.op);
    io_stats.requests += count;
    io_stats.bytes += phase.bytesPerTask;
    io_stats.requestSize.addMany(static_cast<double>(chunk), count);

    const int node = task->node;
    // Cache identity: offsets are laid out per logical task so a
    // re-read of the same stream (second iteration, persist-read after
    // persist-write) touches the same byte ranges and hits.
    const std::uint64_t stream = cacheStreamFor(phase);
    const Bytes base_offset =
        static_cast<Bytes>(task->taskIndex) * phase.bytesPerTask;
    const Tick phase_start = cluster_.simulator().now();
    const int trace_pid = trace::nodePid(node);
    const int trace_tid =
        task->coreSlot >= 0 ? trace::coreTid(task->coreSlot) : 0;
    const storage::IoOp trace_op = phase.op;
    const Bytes trace_bytes = phase.bytesPerTask;
    auto record_phase = [&io_stats, phase_start, trace_pid, trace_tid,
                         trace_op, trace_bytes, this]() {
        io_stats.phaseSeconds.add(ticksToSeconds(
            cluster_.simulator().now() - phase_start));
        if (collector_ != nullptr && trace_tid != 0)
            collector_->span(trace_pid, trace_tid, "phase",
                             storage::ioOpName(trace_op), phase_start,
                             cluster_.simulator().now(),
                             trace::TraceArgs().add("bytes",
                                                    trace_bytes));
    };
    if (!conf_.aggregateIo) {
        auto loop = std::make_shared<ChunkLoop>();
        loop->cluster = &cluster_;
        loop->hdfs = &hdfs_;
        loop->op = phase.op;
        loop->node = node;
        loop->taskIndex = task->taskIndex;
        loop->chunk = chunk;
        loop->count = count;
        loop->stream = stream;
        loop->baseOffset = base_offset;
        loop->cpuPerChunk = secondsToTicks(
            phase.cpuPerByte * static_cast<double>(chunk) *
            task->slowdown);
        loop->writeIssued = [run]() { ++run->outstandingWrites; };
        loop->writeDrained = [this, run]() { noteWriteDrained(run); };
        if (phase.op == storage::IoOp::ShuffleRead) {
            loop->sources = run->shuffleSources;
            loop->injector = injector_;
            loop->fetchFailed = [this, run, task](int source) {
                handleFetchFailure(run, task, source);
            };
        }
        loop->done = [this, record_phase, run = std::move(run),
                      task = std::move(task)]() mutable {
            record_phase();
            runPhase(std::move(run), std::move(task));
        };
        loop->next();
        return;
    }

    // Pipelined CPU of the phase (decompress/deserialize for reads,
    // serialize/compress for writes), lumped in aggregated mode;
    // per-task duration is identical (serial sum).
    const double cpu_seconds = phase.cpuPerByte *
                               static_cast<double>(phase.bytesPerTask) *
                               task->slowdown;

    if (!storage::isRead(phase.op)) {
        // Asynchronous write: serialize (pipelined CPU), hand the
        // whole batch to the device, and move on; the stage barrier
        // waits for the drain.
        ++run->outstandingWrites;
        auto on_drain = [this, run]() { noteWriteDrained(run); };
        const storage::IoOp op = phase.op;
        cluster_.simulator().schedule(
            secondsToTicks(cpu_seconds),
            [this, run, task, record_phase, op, chunk, count, node,
             stream, base_offset, on_drain]() mutable {
                record_phase();
                if (op == storage::IoOp::HdfsWrite) {
                    hdfs_.writeBatch(node, stream, base_offset, chunk,
                                     count, std::move(on_drain));
                } else {
                    cluster_.node(node).writeThrough(
                        oscache::Role::Local, op, stream, base_offset,
                        chunk, count, std::move(on_drain));
                }
                runPhase(std::move(run), std::move(task));
            });
        return;
    }

    // Reads: device I/O first, then the pipelined CPU, then the next
    // phase.
    auto after_io = [this, run, task, cpu_seconds,
                     record_phase]() mutable {
        cluster_.simulator().schedule(
            secondsToTicks(cpu_seconds),
            [this, record_phase, run = std::move(run),
             task = std::move(task)]() mutable {
                record_phase();
                runPhase(std::move(run), std::move(task));
            });
    };

    switch (phase.op) {
      case storage::IoOp::HdfsRead:
        hdfs_.readBatch(node, stream, base_offset, chunk, count,
                        std::move(after_io));
        return;
      case storage::IoOp::PersistRead:
        cluster_.node(node).readThrough(
            oscache::Role::Local, phase.op, stream, base_offset, chunk,
            count, std::move(after_io));
        return;
      case storage::IoOp::ShuffleRead: {
        auto fetch = std::make_shared<ShuffleFetch>();
        fetch->cluster = &cluster_;
        fetch->readerNode = node;
        fetch->taskIndex = task->taskIndex;
        fetch->chunk = chunk;
        fetch->count = count;
        fetch->stream = stream;
        fetch->offset = base_offset;
        fetch->sources = run->shuffleSources;
        fetch->injector = injector_;
        fetch->fetchFailed = [this, run, task](int source) {
            handleFetchFailure(run, task, source);
        };
        fetch->done = std::move(after_io);
        fetch->next();
        return;
      }
      default:
        fatal("TaskEngine: unexpected aggregated read op %s",
              storage::ioOpName(phase.op));
    }
}

void
TaskEngine::failAttempt(const std::shared_ptr<StageRun> &run,
                        const std::shared_ptr<TaskRun> &task)
{
    const std::size_t index = static_cast<std::size_t>(task->taskIndex);
    StageRun::TaskState &state = run->states[index];
    const Tick now = cluster_.simulator().now();

    releaseExecutionHold(task);
    ++run->metrics.faults.taskFailures;
    run->metrics.faults.wastedTaskSeconds +=
        ticksToSeconds(now - task->start);
    task->aborted = true;
    finishAttempt(run, task, "crash");

    ++state.failures;
    if (state.failures >= conf_.taskMaxFailures)
        fatal("TaskEngine: task %d of stage %s failed %d times "
              "(spark.task.maxFailures), aborting the application",
              task->taskIndex, run->metrics.name.c_str(),
              state.failures);
    // Blacklist the crash site for this task's retries while another
    // node can take it (single-node clusters must retry in place).
    if (cluster_.aliveCount() > 1 &&
        std::find(state.blacklist.begin(), state.blacklist.end(),
                  task->node) == state.blacklist.end())
        state.blacklist.push_back(task->node);

    if (!state.done && !state.retryQueued && !state.hasLiveAttempt()) {
        ++run->metrics.faults.taskRetries;
        state.retryQueued = true;
        state.launched = false; // retry re-baselines speculation
        state.readyTick = now;
        run->retries.push_back(index);
    }
    kickFreeCores(run);
}

void
TaskEngine::handleFetchFailure(const std::shared_ptr<StageRun> &run,
                               const std::shared_ptr<TaskRun> &task,
                               int source)
{
    ++run->metrics.faults.fetchFailures;
    if (run->fetchFailedSource < 0) {
        // First FetchFailure aborts the whole stage, as the Spark 1.6
        // DAGScheduler does: every live attempt is cancelled (those
        // parked on timers immediately, those inside device chains at
        // their next phase boundary) and no new work is launched. The
        // scheduler recomputes the lost map outputs and reruns.
        run->fetchFailedSource = source;
        run->abortLaunches = true;
        for (StageRun::TaskState &state : run->states) {
            for (const std::weak_ptr<TaskRun> &weak : state.attempts) {
                const std::shared_ptr<TaskRun> attempt = weak.lock();
                if (!attempt || attempt->aborted)
                    continue;
                attempt->aborted = true;
                attempt->abortReason = "stage-abort";
                releaseExecutionHold(attempt);
                if (attempt->hasPendingEvent) {
                    cluster_.simulator().cancel(attempt->pendingEvent);
                    attempt->hasPendingEvent = false;
                    finishAttempt(run, attempt, "stage-abort");
                }
            }
        }
        if (run->speculationTimerArmed) {
            cluster_.simulator().cancel(run->speculationTimer);
            run->speculationTimerArmed = false;
        }
    }
    // The reporting attempt's fetch chain ends here (it never reaches
    // runPhase again), so its core frees now; it was marked aborted
    // above or by an earlier failure's sweep.
    task->aborted = true;
    releaseExecutionHold(task);
    finishAttempt(run, task, "fetch-fail");
    // A submitted stage reports the abort through its callback (the
    // sync path returns out of runStage's event loop instead).
    maybeFinishAsync(run);
}

void
TaskEngine::onNodeDeath(const std::shared_ptr<StageRun> &run, int node)
{
    if (run->completed >= run->metrics.numTasks)
        return;
    const Tick now = cluster_.simulator().now();
    for (std::size_t i = 0; i < run->states.size(); ++i) {
        StageRun::TaskState &state = run->states[i];
        if (state.done)
            continue;
        for (const std::weak_ptr<TaskRun> &weak : state.attempts) {
            const std::shared_ptr<TaskRun> attempt = weak.lock();
            if (!attempt || attempt->aborted || attempt->node != node)
                continue;
            attempt->aborted = true;
            attempt->abortReason = "node-loss";
            releaseExecutionHold(attempt);
            ++run->metrics.faults.lostAttempts;
            run->metrics.faults.wastedTaskSeconds +=
                ticksToSeconds(now - attempt->start);
            if (attempt->hasPendingEvent) {
                cluster_.simulator().cancel(attempt->pendingEvent);
                attempt->hasPendingEvent = false;
                finishAttempt(run, attempt, "node-loss");
            }
            // Attempts inside device chains unwind at their next phase
            // boundary (launchOnFreeCore on a dead node is a no-op).
        }
        // Executor loss re-queues without charging maxFailures. Only
        // tasks that actually launched need a retry entry: a
        // never-launched task is still ahead of nextTask and would
        // otherwise start twice (once as a "retry", once fresh) and
        // burn a dispatch slot unwinding the zombie at stage end.
        if (!run->abortLaunches && !state.retryQueued &&
            !state.hasLiveAttempt() && !state.attempts.empty()) {
            state.retryQueued = true;
            state.launched = false;
            state.readyTick = now;
            run->retries.push_back(i);
        }
    }
    kickFreeCores(run);
}

void
TaskEngine::noteWriteDrained(const std::shared_ptr<StageRun> &run)
{
    --run->outstandingWrites;
    maybeFinishAsync(run);
}

TaskEngine::StageRef
TaskEngine::submitStage(const StageSpec &spec, int schedTag,
                        int driverTid, StageCallback onDone)
{
    if (arbiter_ == nullptr)
        fatal("TaskEngine: submitStage needs a core arbiter "
              "(setArbiter); single-job callers use runStage");
    if (conf_.speculation)
        fatal("TaskEngine: speculative execution is not supported "
              "under a core arbiter (multi-tenant mode)");
    const std::shared_ptr<StageRun> run = startRun(spec);
    run->schedTag = schedTag;
    run->driverTid = driverTid;
    run->onDone = std::move(onDone);
    // Complete an empty stage on the next event so the callback never
    // fires before submitStage returns to the caller. Otherwise no
    // initial fill here: the caller offers cores through the arbiter
    // once the submission is registered.
    if (run->tasks.empty())
        cluster_.simulator().schedule(
            0, [this, run]() { maybeFinishAsync(run); });
    return run;
}

void
TaskEngine::maybeFinishAsync(const std::shared_ptr<StageRun> &run)
{
    if (!run->onDone)
        return; // runStage stage, or the callback already fired
    const bool aborted = run->fetchFailedSource >= 0;
    if (!aborted && (run->completed != run->metrics.numTasks ||
                     run->outstandingWrites != 0))
        return;
    deregisterRun(run.get());
    closeRun(*run);
    // Null the callback before invoking it: completions re-entering
    // through zombie unwinds or write drains must not fire it twice.
    const StageCallback done = std::move(run->onDone);
    run->onDone = nullptr;
    done(run->metrics);
}

void
TaskEngine::deregisterRun(const StageRun *run)
{
    activeRuns_.erase(
        std::remove_if(activeRuns_.begin(), activeRuns_.end(),
                       [run](const std::weak_ptr<StageRun> &weak) {
                           const std::shared_ptr<StageRun> live =
                               weak.lock();
                           return !live || live.get() == run;
                       }),
        activeRuns_.end());
}

} // namespace doppio::spark
