/**
 * @file
 * fio-style disk microbenchmark (one-time disk profiling).
 *
 * The paper's methodology starts with "one-time disk profiling per data
 * center" using fio: sweep request sizes, log IOPS and effective
 * bandwidth, and build lookup tables the model consults (§III-C, §VI-1,
 * Fig. 5). FioProfiler plays that role against the simulated devices:
 * each measurement point runs a private discrete-event simulation with
 * a fixed queue depth of 32 workers, each issuing 64 fixed-size
 * requests back-to-back, and reports aggregate IOPS and bandwidth.
 * The tables Eq. 1 consumes come from model::PlatformProfile, which
 * sweeps each device once per process.
 */

#ifndef DOPPIO_STORAGE_FIO_H
#define DOPPIO_STORAGE_FIO_H

#include <vector>

#include "common/lookup_table.h"
#include "common/units.h"
#include "storage/disk_params.h"
#include "storage/io_request.h"

namespace doppio::storage {

/** One measurement point of a request-size sweep. */
struct FioResult
{
    Bytes requestSize = 0;
    double iops = 0.0;
    BytesPerSec bandwidth = 0.0;
};

/** Request-size sweep driver over a simulated device. */
class FioProfiler
{
  public:
    /**
     * @param params device to profile (a private DiskDevice instance is
     *               created per measurement point).
     */
    explicit FioProfiler(DiskParams params);

    /** Measure aggregate IOPS/bandwidth at one request size. */
    FioResult measure(IoKind kind, Bytes requestSize) const;

    /** Measure a full sweep. */
    std::vector<FioResult> sweep(IoKind kind,
                                 const std::vector<Bytes> &sizes) const;

    /**
     * Build the effective-bandwidth lookup table the Doppio model
     * consumes: x = request size (bytes), y = bandwidth (bytes/s),
     * log-interpolated.
     */
    LookupTable bandwidthTable(IoKind kind,
                               const std::vector<Bytes> &sizes) const;

    /** Convenience: bandwidthTable over defaultSweepSizes(). */
    LookupTable bandwidthTable(IoKind kind) const;

    /** 4 KB ... 365 MB, the span of request sizes Spark produces. */
    static std::vector<Bytes> defaultSweepSizes();

    const DiskParams &params() const { return params_; }

  private:
    DiskParams params_;
};

} // namespace doppio::storage

#endif // DOPPIO_STORAGE_FIO_H
