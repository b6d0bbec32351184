#include "spark/metrics.h"

#include "cluster/cluster.h"
#include "dfs/hdfs.h"

namespace doppio::spark {

bool
FaultMetrics::any() const
{
    return taskFailures != 0 || taskRetries != 0 || lostAttempts != 0 ||
           fetchFailures != 0 || stageReattempts != 0 ||
           hdfsFailovers != 0 || corruptReads != 0 ||
           partitionTimeouts != 0 || wastedTaskSeconds != 0.0 ||
           recoverySeconds != 0.0 || reReplicatedBytes != 0 ||
           quarantinedBytes != 0 || lostDirtyBytes != 0;
}

FaultMetrics &
FaultMetrics::operator+=(const FaultMetrics &other)
{
    taskAttempts += other.taskAttempts;
    taskFailures += other.taskFailures;
    taskRetries += other.taskRetries;
    lostAttempts += other.lostAttempts;
    fetchFailures += other.fetchFailures;
    stageReattempts += other.stageReattempts;
    hdfsFailovers += other.hdfsFailovers;
    corruptReads += other.corruptReads;
    partitionTimeouts += other.partitionTimeouts;
    wastedTaskSeconds += other.wastedTaskSeconds;
    recoverySeconds += other.recoverySeconds;
    reReplicatedBytes += other.reReplicatedBytes;
    quarantinedBytes += other.quarantinedBytes;
    lostDirtyBytes += other.lostDirtyBytes;
    return *this;
}

void
StageMetrics::foldIn(const StageMetrics &rerun)
{
    taskDuration.merge(rerun.taskDuration);
    for (std::size_t i = 0; i < io.size(); ++i) {
        io[i].requests += rerun.io[i].requests;
        io[i].bytes += rerun.io[i].bytes;
        io[i].requestSize.merge(rerun.io[i].requestSize);
        io[i].phaseSeconds.merge(rerun.io[i].phaseSeconds);
    }
    faults += rerun.faults;
    endTick = rerun.endTick;
    fetchFailedSource = rerun.fetchFailedSource;
}

Bytes
StageMetrics::totalBytes(storage::IoKind kind) const
{
    Bytes total = 0;
    for (storage::IoOp op : storage::kAllIoOps) {
        if (storage::ioKind(op) == kind)
            total += forOp(op).bytes;
    }
    return total;
}

double
JobMetrics::seconds() const
{
    double total = 0.0;
    for (const auto &stage : stages)
        total += stage.seconds();
    return total;
}

double
AppMetrics::seconds() const
{
    double total = 0.0;
    for (const auto &job : jobs)
        total += job.seconds();
    return total;
}

std::vector<const StageMetrics *>
AppMetrics::allStages() const
{
    std::vector<const StageMetrics *> result;
    for (const auto &job : jobs) {
        for (const auto &stage : job.stages)
            result.push_back(&stage);
    }
    return result;
}

double
AppMetrics::secondsForPrefix(const std::string &prefix) const
{
    double total = 0.0;
    for (const StageMetrics *stage : allStages()) {
        if (stage->name.rfind(prefix, 0) == 0)
            total += stage->seconds();
    }
    return total;
}

Bytes
AppMetrics::bytesForPrefix(const std::string &prefix,
                           storage::IoOp op) const
{
    Bytes total = 0;
    for (const StageMetrics *stage : allStages()) {
        if (stage->name.rfind(prefix, 0) == 0)
            total += stage->forOp(op).bytes;
    }
    return total;
}

FaultMetrics
foldRunFaults(std::span<AppMetrics> apps, const cluster::Cluster &cluster,
              const dfs::Hdfs &hdfs)
{
    FaultMetrics run;
    for (AppMetrics &app : apps) {
        app.faultsPresent = true;
        for (const StageMetrics *stage : app.allStages())
            app.faults += stage->faults;
        run += app.faults;
    }
    run.hdfsFailovers += hdfs.readFailovers();
    run.corruptReads += hdfs.corruptReads();
    run.quarantinedBytes += hdfs.quarantinedBytes();
    run.partitionTimeouts += static_cast<std::uint64_t>(
        cluster.network().partitionTimeouts());
    run.reReplicatedBytes += hdfs.reReplicatedBytes();
    run.recoverySeconds += hdfs.reReplicationSeconds();
    run.lostDirtyBytes += cluster.lostDirtyBytes();
    return run;
}

} // namespace doppio::spark
