/**
 * @file
 * One-time platform (disk) profile.
 *
 * The paper's methodology (§VI-1) starts with one-time disk profiling
 * per data center: effective-bandwidth-vs-request-size lookup tables
 * for each device role. A PlatformProfile holds the four tables the
 * model needs (HDFS read/write, Spark-local read/write) and resolves
 * which table an I/O operation class consults.
 */

#ifndef DOPPIO_MODEL_PLATFORM_PROFILE_H
#define DOPPIO_MODEL_PLATFORM_PROFILE_H

#include "cluster/cluster_config.h"
#include "common/lookup_table.h"
#include "common/units.h"
#include "storage/disk_params.h"
#include "storage/io_request.h"

namespace doppio::model {

/** Effective-bandwidth tables for one cluster configuration. */
struct PlatformProfile
{
    LookupTable hdfsRead;
    LookupTable hdfsWrite;
    LookupTable localRead;
    LookupTable localWrite;

    /**
     * Build from the fio microbenchmark sweep of the two device models
     * (the "one-time disk profiling" step). Each distinct device is
     * swept once per process: the tables depend only on its
     * DiskParams, so later calls — from Profiler::fit, the optimizer's
     * grid cells or any thread — read a shared, mutex-guarded memo.
     */
    static PlatformProfile fromDisks(const storage::DiskParams &hdfsDisk,
                                     const storage::DiskParams &localDisk);

    /**
     * Multi-disk variant: @p hdfsCount / @p localCount identical
     * devices striped behind each role. Aggregate effective bandwidth
     * scales with the count — the paper: "our model relates to disk
     * bandwidth rather than disk number. Thus, it is general enough
     * to support the multi-disk case".
     */
    static PlatformProfile fromDisks(const storage::DiskParams &hdfsDisk,
                                     int hdfsCount,
                                     const storage::DiskParams &localDisk,
                                     int localCount);

    /** Build from a node configuration (disks + counts). */
    static PlatformProfile
    fromNode(const cluster::NodeConfig &node);

    /**
     * @return the effective bandwidth (bytes/s) for operation @p op at
     * @p requestSize: HDFS ops consult the HDFS-disk tables; shuffle
     * and persist ops consult the Spark-local tables.
     */
    BytesPerSec bandwidthFor(storage::IoOp op, double requestSize) const;
};

} // namespace doppio::model

#endif // DOPPIO_MODEL_PLATFORM_PROFILE_H
