#include "model/platform_profile.h"

#include <map>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "storage/fio.h"

namespace doppio::model {

namespace {

/** One device's read and write bandwidth tables. */
using DiskTables = std::pair<LookupTable, LookupTable>;

/**
 * The process-wide profile memo: each distinct device is swept once.
 * The sweep runs outside the lock — it is the expensive part and is
 * deterministic, so two threads racing on one device compute
 * identical tables and the losing emplace is a no-op (first insert
 * wins). std::map nodes are stable, so the returned reference
 * outlives later inserts.
 */
const DiskTables &
tablesFor(const storage::DiskParams &disk)
{
    static std::mutex mutex;
    static std::map<storage::DiskParams, DiskTables> memo;
    {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = memo.find(disk);
        if (it != memo.end())
            return it->second;
    }
    const storage::FioProfiler profiler(disk);
    DiskTables tables(profiler.bandwidthTable(storage::IoKind::Read),
                      profiler.bandwidthTable(storage::IoKind::Write));
    const std::lock_guard<std::mutex> lock(mutex);
    return memo.emplace(disk, std::move(tables)).first->second;
}

/** Scale a bandwidth table's values by a striping factor. */
LookupTable
scaleTable(const LookupTable &table, int count)
{
    if (count == 1)
        return table;
    std::vector<std::pair<double, double>> points;
    points.reserve(table.points().size());
    for (const auto &[x, y] : table.points())
        points.emplace_back(x, y * static_cast<double>(count));
    return LookupTable(std::move(points), LookupTable::Scale::Log);
}

} // namespace

PlatformProfile
PlatformProfile::fromDisks(const storage::DiskParams &hdfsDisk,
                           const storage::DiskParams &localDisk)
{
    const DiskTables &hdfs = tablesFor(hdfsDisk);
    const DiskTables &local = tablesFor(localDisk);
    return {hdfs.first, hdfs.second, local.first, local.second};
}

PlatformProfile
PlatformProfile::fromDisks(const storage::DiskParams &hdfsDisk,
                           int hdfsCount,
                           const storage::DiskParams &localDisk,
                           int localCount)
{
    if (hdfsCount <= 0 || localCount <= 0)
        fatal("PlatformProfile: disk counts must be positive");
    PlatformProfile profile = fromDisks(hdfsDisk, localDisk);
    profile.hdfsRead = scaleTable(profile.hdfsRead, hdfsCount);
    profile.hdfsWrite = scaleTable(profile.hdfsWrite, hdfsCount);
    profile.localRead = scaleTable(profile.localRead, localCount);
    profile.localWrite = scaleTable(profile.localWrite, localCount);
    return profile;
}

PlatformProfile
PlatformProfile::fromNode(const cluster::NodeConfig &node)
{
    return fromDisks(node.hdfsDisk, node.hdfsDiskCount, node.localDisk,
                     node.localDiskCount);
}

BytesPerSec
PlatformProfile::bandwidthFor(storage::IoOp op, double requestSize) const
{
    switch (op) {
      case storage::IoOp::HdfsRead:
        return hdfsRead.at(requestSize);
      case storage::IoOp::HdfsWrite:
        return hdfsWrite.at(requestSize);
      case storage::IoOp::ShuffleRead:
      case storage::IoOp::PersistRead:
      case storage::IoOp::SpillRead:
        return localRead.at(requestSize);
      case storage::IoOp::ShuffleWrite:
      case storage::IoOp::PersistWrite:
      case storage::IoOp::SpillWrite:
        return localWrite.at(requestSize);
      case storage::IoOp::RawRead:
      case storage::IoOp::RawWrite:
        break;
    }
    fatal("PlatformProfile: no table for op %s", storage::ioOpName(op));
}

} // namespace doppio::model
