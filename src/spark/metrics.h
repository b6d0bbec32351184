/**
 * @file
 * Per-stage and per-application execution metrics.
 *
 * These are the observables the paper's methodology extracts from a
 * real cluster (Spark UI stage times, iostat request sizes, I/O byte
 * counts). The model profiler consumes them; the bench harnesses print
 * them.
 */

#ifndef DOPPIO_SPARK_METRICS_H
#define DOPPIO_SPARK_METRICS_H

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "common/units.h"
#include "oscache/page_cache.h"
#include "storage/io_request.h"

namespace doppio::cluster {
class Cluster;
}

namespace doppio::dfs {
class Hdfs;
}

namespace doppio::spark {

/** Stage-scoped accounting for one I/O operation class. */
struct StageIoStats
{
    std::uint64_t requests = 0;
    Bytes bytes = 0;
    SummaryStats requestSize;
    /**
     * Wall-clock duration of each task's phase doing this operation
     * (device time plus the pipelined per-chunk CPU). At P=1 this is
     * the paper's per-core I/O access time, from which T and lambda
     * derive.
     */
    SummaryStats phaseSeconds;

    /** @return iostat-style average request size (bytes). */
    double
    avgRequestSize() const
    {
        return requests ? requestSize.mean() : 0.0;
    }
};

/**
 * Failure/recovery accounting (fault-injection runs). All counters
 * stay zero in a fault-free run, and any() stays false even when
 * taskAttempts is counted, so fault-free JSON output is unchanged.
 */
struct FaultMetrics
{
    std::uint64_t taskAttempts = 0; //!< attempts launched (incl. clean)
    std::uint64_t taskFailures = 0; //!< attempts that crashed
    std::uint64_t taskRetries = 0;  //!< failed tasks re-queued
    std::uint64_t lostAttempts = 0; //!< attempts killed by node loss
    std::uint64_t fetchFailures = 0;   //!< shuffle fetches that failed
    std::uint64_t stageReattempts = 0; //!< stages rerun after fetch loss
    std::uint64_t hdfsFailovers = 0;   //!< reads served by a remote replica
    std::uint64_t corruptReads = 0; //!< reads failing checksum verify
    std::uint64_t partitionTimeouts = 0; //!< backoff rounds vs. a split
    double wastedTaskSeconds = 0.0; //!< work discarded by crashes/kills
    double recoverySeconds = 0.0;   //!< wall-clock of recovery reruns
    Bytes reReplicatedBytes = 0;    //!< HDFS re-replication traffic
    Bytes quarantinedBytes = 0;     //!< corrupt replica bytes repaired
    Bytes lostDirtyBytes = 0;       //!< dirty page-cache bytes lost

    /** @return true when any failure was observed (taskAttempts alone
     *          does not count — it grows in healthy runs too). */
    bool any() const;

    FaultMetrics &operator+=(const FaultMetrics &other);
};

/**
 * Unified-memory accounting (SparkConf::unifiedMemory runs). All
 * byte counts are cluster-wide sums over the per-node managers. The
 * JSON writer emits the block only when the run modeled unified
 * memory, keeping legacy output bit-for-bit identical.
 */
struct MemoryMetrics
{
    Bytes poolBytes = 0;          //!< configured pool, summed over nodes
    Bytes peakStorageBytes = 0;   //!< sum of per-node storage peaks
    Bytes peakExecutionBytes = 0; //!< sum of per-node execution peaks
    std::uint64_t evictedBlocks = 0; //!< cached blocks evicted
    Bytes evictedBytes = 0;          //!< in-memory bytes evicted
    Bytes evictedToDiskBytes = 0; //!< serialized bytes written to disk
    std::uint64_t droppedBlocks = 0; //!< blocks lost (recompute later)
    std::uint64_t recomputedPartitions = 0; //!< lineage recomputations
    std::uint64_t spills = 0;      //!< task phases that spilled
    std::uint64_t spillPasses = 0; //!< external-sort merge passes
    Bytes spilledBytes = 0;       //!< reservation shortfall sent to disk
    std::uint64_t oomKills = 0;   //!< attempts killed by failed minimum
};

/**
 * Micro-batch streaming accounting (workloads::Streaming runs driven
 * through sched::StreamingDriver). Latencies are end-to-end per batch:
 * arrival (admission into the bounded backlog) to job completion,
 * against the configured SLO. Present in JSON output only when the
 * run was a streaming run.
 */
struct StreamingMetrics
{
    double ratePerSec = 0.0;   //!< configured arrival rate lambda
    double sloSeconds = 0.0;   //!< per-batch latency objective
    int maxBacklog = 0;        //!< bounded-queue capacity (batches)
    std::uint64_t arrivals = 0;  //!< batches that arrived
    std::uint64_t processed = 0; //!< batches that completed
    std::uint64_t dropped = 0; //!< arrivals shed by backpressure
    std::uint64_t sloViolations = 0; //!< processed batches over SLO
    int peakBacklog = 0;       //!< max batches queued or running
    double meanLatencySec = 0.0;
    double p50LatencySec = 0.0;
    double p99LatencySec = 0.0;
    double maxLatencySec = 0.0;
    /** Mean per-batch service time (submission to completion of the
     *  batch job, excluding queueing), the processing rate's inverse. */
    double meanServiceSec = 0.0;
    /** Configured checkpoint cadence: < 0 disables recovery entirely,
     *  0 recovers by replaying every batch (no periodic checkpoints),
     *  > 0 checkpoints state through HDFS on this period so replay —
     *  and hence recovery time for a stable stream — stays bounded. */
    double checkpointIntervalSec = -1.0;
    std::uint64_t checkpoints = 0; //!< checkpoint jobs completed
    std::uint64_t recoveries = 0;  //!< post-failure recovery jobs
    double recoverySecondsTotal = 0.0; //!< sum of kill->recovered spans
    double maxRecoverySec = 0.0;       //!< worst single recovery

    /**
     * @return true when the arrival process kept up: nothing dropped
     * and the backlog never pinned at capacity. The stability boundary
     * reported by bench/ext_multitenant is the largest swept lambda
     * for which this holds while p99 latency stays bounded.
     */
    bool
    stable() const
    {
        return dropped == 0 && peakBacklog < maxBacklog;
    }
};

/** Everything measured about one executed stage. */
struct StageMetrics
{
    std::string name;
    int numTasks = 0;
    Tick startTick = 0;
    Tick endTick = 0;
    /// Wall-clock duration of each task, including queueing-free phases.
    SummaryStats taskDuration;
    /// Per-IoOp logical bytes/requests issued by this stage's tasks.
    std::array<StageIoStats, storage::kNumIoOps> io;
    /// Failure/recovery counters of this stage (all-zero when healthy).
    FaultMetrics faults;
    /**
     * Set (>= 0) when the stage aborted on a shuffle-fetch failure
     * against this source node: the stage did NOT complete and the
     * scheduler must recompute the lost map outputs and rerun. -1
     * means the stage ran to completion.
     */
    int fetchFailedSource = -1;

    /**
     * Fold a rerun's metrics into this (failed) stage attempt: I/O and
     * task-duration accounting accumulate, the window extends to the
     * rerun's end, fault counters add up, and the rerun's completion
     * state (fetchFailedSource) replaces this one's. Keeps one merged
     * entry per logical stage so JobMetrics::seconds() — the sum of
     * stage durations — never double-counts recovered time.
     */
    void foldIn(const StageMetrics &rerun);

    /** @return stage duration in seconds. */
    double
    seconds() const
    {
        return ticksToSeconds(endTick - startTick);
    }

    /** @return accounting for one operation class. */
    const StageIoStats &
    forOp(storage::IoOp op) const
    {
        return io[static_cast<std::size_t>(op)];
    }

    StageIoStats &
    forOp(storage::IoOp op)
    {
        return io[static_cast<std::size_t>(op)];
    }

    /** @return total bytes moved in @p kind direction by this stage. */
    Bytes totalBytes(storage::IoKind kind) const;
};

/** Metrics for one job (action): its stages in execution order. */
struct JobMetrics
{
    std::string name;
    std::vector<StageMetrics> stages;

    /** @return job duration in seconds (sum of stage durations). */
    double seconds() const;
};

/** Metrics for a whole application run. */
struct AppMetrics
{
    std::string name;
    std::vector<JobMetrics> jobs;
    /**
     * Cluster-wide OS page-cache counters (summed over nodes), present
     * only when the run modeled the page cache; the JSON writer omits
     * the block entirely otherwise, keeping cache-off output identical
     * to pre-page-cache builds.
     */
    bool pageCachePresent = false;
    oscache::PageCacheStats pageCache;
    /**
     * Application-wide fault/recovery totals, present only when the
     * run had a fault injector attached; the JSON writer omits the
     * block otherwise, keeping fault-free output bit-for-bit identical
     * to pre-fault builds.
     */
    bool faultsPresent = false;
    FaultMetrics faults;
    /**
     * Unified-memory totals, present only when the run modeled the
     * unified memory manager (SparkConf::unifiedMemory); the JSON
     * writer omits the block otherwise.
     */
    bool memoryPresent = false;
    MemoryMetrics memory;
    /**
     * Micro-batch latency/stability totals, present only for
     * streaming runs (workloads::Streaming); the JSON writer omits
     * the block otherwise.
     */
    bool streamingPresent = false;
    StreamingMetrics streaming;

    /** @return application duration in seconds. */
    double seconds() const;

    /** Flatten all stages across jobs, in execution order. */
    std::vector<const StageMetrics *> allStages() const;

    /**
     * Sum the durations of all stages whose name starts with
     * @p prefix — the paper groups e.g. all 50 LR iteration stages
     * into one "iteration" bar.
     */
    double secondsForPrefix(const std::string &prefix) const;

    /** Sum of @p op bytes across all stages with name prefix. */
    Bytes bytesForPrefix(const std::string &prefix,
                         storage::IoOp op) const;
};

/**
 * The end-of-run fault fold every run driver shares. Adds each of
 * @p apps' stage counters to its app-level faults and marks them
 * present, then @return their sum plus the counters that accrue
 * outside any one stage: HDFS failovers, corrupt reads, quarantined
 * bytes, partition timeouts, re-replicated bytes, re-replication
 * seconds and lost dirty page-cache bytes.
 */
FaultMetrics foldRunFaults(std::span<AppMetrics> apps,
                           const cluster::Cluster &cluster,
                           const dfs::Hdfs &hdfs);

} // namespace doppio::spark

#endif // DOPPIO_SPARK_METRICS_H
