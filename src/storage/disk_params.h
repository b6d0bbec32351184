/**
 * @file
 * Disk device parameterization and calibrated presets.
 *
 * The mechanistic disk model has three stages per request:
 *   1. admission — a token bucket serializing request starts at the
 *      device's IOPS limit (the HDD arm / SSD controller queue);
 *   2. fixed service latency (seek + rotation for HDD, flash access for
 *      SSD), overlapped across outstanding requests;
 *   3. transfer — a fluid fair-shared pipe at the device's sequential
 *      bandwidth.
 *
 * Small random requests are admission-limited (effective bandwidth =
 * IOPS x request size); large requests are transfer-limited. The presets
 * below are calibrated to the paper's measured anchors (Fig. 5 and
 * §III-C): HDD ~15 MB/s and SSD ~480 MB/s at 30 KB (32x), ~181x gap at
 * 4 KB, ~3.7x gap at 128 MB, and HDD shuffle-write bandwidth ~100 MB/s
 * for ~365 MB sorted chunks.
 */

#ifndef DOPPIO_STORAGE_DISK_PARAMS_H
#define DOPPIO_STORAGE_DISK_PARAMS_H

#include <compare>
#include <string>

#include "common/sim_time.h"
#include "common/units.h"
#include "storage/io_request.h"

namespace doppio::storage {

/** Broad device technology class. */
enum class DiskType { Hdd, Ssd };

/** @return "HDD" / "SSD". */
const char *diskTypeName(DiskType type);

/** Mechanistic disk model parameters. */
struct DiskParams
{
    std::string model;      //!< device model string, for reports
    DiskType type = DiskType::Hdd;
    Bytes capacity = 0;     //!< advertised capacity

    double readIops = 0.0;  //!< admission rate for reads (1/s)
    double writeIops = 0.0; //!< admission rate for writes (1/s)
    Tick readLatency = 0;   //!< fixed per-request read service latency
    Tick writeLatency = 0;  //!< fixed per-request write service latency
    BytesPerSec readBandwidth = 0.0;  //!< sequential read ceiling
    BytesPerSec writeBandwidth = 0.0; //!< sequential write ceiling

    /**
     * Closed-form effective bandwidth at @p requestSize under full
     * concurrency: min(bandwidth, iops * requestSize). The simulator
     * reproduces this emergently; the closed form is used by tests and
     * as a sanity oracle.
     */
    BytesPerSec effectiveBandwidth(IoKind kind, Bytes requestSize) const;

    /** Validate positivity of all rates; fatal() on error. */
    void validate() const;

    /** Field-wise order: the key of the platform-profile memo. */
    auto operator<=>(const DiskParams &) const = default;
};

/**
 * 7200-RPM datacenter HDD (paper: Western Digital 4000FYYZ, 4 TB).
 * Anchors: 30 KB read ~15 MB/s, 4 KB ~2 MB/s, 128 MB ~130 MB/s,
 * large-chunk write ~100 MB/s.
 */
DiskParams makeHddParams(Bytes capacity = 4 * kTiB);

/**
 * Datacenter SATA SSD (paper: Samsung MZ7LM240 "SM863", 240 GB).
 * Anchors: 30 KB read ~480 MB/s (bandwidth-capped), 4 KB ~390 MB/s
 * (IOPS-capped), sequential write ~440 MB/s.
 */
DiskParams makeSsdParams(Bytes capacity = 240 * kGiB);

/**
 * Datacenter NVMe drive (post-paper hardware exploration): ~3 GB/s
 * sequential read, ~600k read IOPS. With spark.local.dir on NVMe the
 * shuffle-read bottleneck the paper studies effectively disappears —
 * used by the ext_nvme extension bench.
 */
DiskParams makeNvmeParams(Bytes capacity = 2 * kTiB);

} // namespace doppio::storage

#endif // DOPPIO_STORAGE_DISK_PARAMS_H
