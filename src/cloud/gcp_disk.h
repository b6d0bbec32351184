/**
 * @file
 * Google Cloud persistent-disk model.
 *
 * In GCP, "the virtual disk bandwidth is related to its configured
 * size" (paper §VI-1, citing the GCP storage datasheet): both IOPS and
 * throughput scale linearly with provisioned capacity up to per-disk
 * caps. This is why the paper's Fig. 14 runtime falls as the local
 * disk grows from 200 GB to 2 TB and then flattens — at ~2 TB the
 * standard disk's IOPS ceiling is reached and shuffle reads stop
 * speeding up.
 *
 * Scaling constants follow the 2017-era GCP documentation:
 *   pd-standard: 0.75 read IOPS/GB (cap 1500), 1.5 write IOPS/GB
 *                (cap 3000), 0.12 MB/s/GB throughput (caps 180/120);
 *   pd-ssd:      30 IOPS/GB (cap 25000), 0.48 MB/s/GB (caps 800/400).
 */

#ifndef DOPPIO_CLOUD_GCP_DISK_H
#define DOPPIO_CLOUD_GCP_DISK_H

#include "common/units.h"
#include "storage/disk_params.h"

namespace doppio::cloud {

/** Decimal gigabyte: GCP provisions and prices disks in GB. */
constexpr Bytes kGB = 1000ULL * 1000 * 1000;

/** GCP persistent disk families. */
enum class CloudDiskType { Standard, Ssd };

/** @return "pd-standard" / "pd-ssd". */
const char *cloudDiskTypeName(CloudDiskType type);

/**
 * Build device parameters for a provisioned persistent disk.
 * @param type disk family.
 * @param size provisioned capacity (must be positive).
 */
storage::DiskParams makeCloudDiskParams(CloudDiskType type, Bytes size);

} // namespace doppio::cloud

#endif // DOPPIO_CLOUD_GCP_DISK_H
