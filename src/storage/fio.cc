#include "storage/fio.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "sim/simulator.h"
#include "storage/disk_device.h"

namespace doppio::storage {

namespace {

constexpr int kQueueDepth = 32;        //!< concurrent workers
constexpr int kRequestsPerWorker = 64; //!< sequential requests per worker

} // namespace

FioProfiler::FioProfiler(DiskParams params) : params_(std::move(params))
{
    params_.validate();
}

FioResult
FioProfiler::measure(IoKind kind, Bytes requestSize) const
{
    if (requestSize == 0)
        fatal("FioProfiler: request size must be positive");

    sim::Simulator sim;
    DiskDevice dev(sim, params_, "fio");
    const IoOp op =
        kind == IoKind::Read ? IoOp::RawRead : IoOp::RawWrite;

    // Each worker issues its next request when the previous one
    // completes, emulating fio's per-job synchronous loop at a fixed
    // aggregate queue depth.
    struct Worker
    {
        int remaining;
        std::function<void()> issue;
    };
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(kQueueDepth);
    for (int w = 0; w < kQueueDepth; ++w) {
        auto worker = std::make_unique<Worker>();
        worker->remaining = kRequestsPerWorker;
        Worker *raw = worker.get();
        worker->issue = [raw, &dev, op, requestSize]() {
            if (raw->remaining == 0)
                return;
            --raw->remaining;
            dev.submit(op, requestSize, [raw]() { raw->issue(); });
        };
        workers.push_back(std::move(worker));
    }
    for (auto &worker : workers)
        worker->issue();

    const Tick end = sim.run();
    const double elapsed = ticksToSeconds(end);
    const OpStats &stats = dev.stats().forOp(op);

    FioResult result;
    result.requestSize = requestSize;
    if (elapsed > 0.0) {
        result.iops =
            static_cast<double>(stats.requests) / elapsed;
        result.bandwidth =
            static_cast<double>(stats.bytes) / elapsed;
    }
    return result;
}

std::vector<FioResult>
FioProfiler::sweep(IoKind kind, const std::vector<Bytes> &sizes) const
{
    std::vector<FioResult> results;
    results.reserve(sizes.size());
    for (Bytes size : sizes)
        results.push_back(measure(kind, size));
    return results;
}

LookupTable
FioProfiler::bandwidthTable(IoKind kind,
                            const std::vector<Bytes> &sizes) const
{
    std::vector<std::pair<double, double>> points;
    points.reserve(sizes.size());
    for (const FioResult &r : sweep(kind, sizes))
        points.emplace_back(static_cast<double>(r.requestSize),
                            r.bandwidth);
    return LookupTable(std::move(points), LookupTable::Scale::Log);
}

LookupTable
FioProfiler::bandwidthTable(IoKind kind) const
{
    return bandwidthTable(kind, defaultSweepSizes());
}

std::vector<Bytes>
FioProfiler::defaultSweepSizes()
{
    return {
        kib(4),   kib(8),   kib(16),  kib(30),  kib(64),  kib(128),
        kib(256), kib(512), mib(1),   mib(4),   mib(16),  mib(27),
        mib(64),  mib(128), mib(365),
    };
}

} // namespace doppio::storage
