/**
 * @file
 * Unit and property tests for the fio-style profiler (paper Fig. 5).
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/units.h"
#include "storage/fio.h"

namespace doppio::storage {
namespace {

TEST(Fio, MeasuredBandwidthMatchesClosedFormHdd)
{
    const DiskParams hdd = makeHddParams();
    const FioProfiler profiler(hdd);
    for (Bytes rs : {kib(4), kib(30), mib(1), mib(128)}) {
        const FioResult r = profiler.measure(IoKind::Read, rs);
        const double expected = hdd.effectiveBandwidth(IoKind::Read, rs);
        EXPECT_NEAR(r.bandwidth, expected, expected * 0.15)
            << "request size " << rs;
    }
}

TEST(Fio, MeasuredBandwidthMatchesClosedFormSsd)
{
    const DiskParams ssd = makeSsdParams();
    const FioProfiler profiler(ssd);
    for (Bytes rs : {kib(4), kib(30), mib(1), mib(128)}) {
        const FioResult r = profiler.measure(IoKind::Read, rs);
        const double expected = ssd.effectiveBandwidth(IoKind::Read, rs);
        EXPECT_NEAR(r.bandwidth, expected, expected * 0.15)
            << "request size " << rs;
    }
}

TEST(Fio, Paper30KAnchors)
{
    // Fig. 5: 15 MB/s (HDD) vs 480 MB/s (SSD) at 30 KB -> 32x.
    const FioProfiler hdd(makeHddParams());
    const FioProfiler ssd(makeSsdParams());
    const double hdd_bw = hdd.measure(IoKind::Read, kib(30)).bandwidth;
    const double ssd_bw = ssd.measure(IoKind::Read, kib(30)).bandwidth;
    EXPECT_NEAR(toMiBps(hdd_bw), 15.0, 2.0);
    EXPECT_NEAR(toMiBps(ssd_bw), 480.0, 30.0);
    EXPECT_NEAR(ssd_bw / hdd_bw, 32.0, 5.0);
}

TEST(Fio, IopsConsistentWithBandwidth)
{
    const FioProfiler profiler(makeHddParams());
    const FioResult r = profiler.measure(IoKind::Read, kib(30));
    EXPECT_NEAR(r.iops * static_cast<double>(kib(30)), r.bandwidth,
                r.bandwidth * 0.01);
}

TEST(Fio, SweepCoversAllSizes)
{
    const FioProfiler profiler(makeSsdParams());
    const auto sizes = FioProfiler::defaultSweepSizes();
    const auto results = profiler.sweep(IoKind::Read, sizes);
    ASSERT_EQ(results.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        EXPECT_EQ(results[i].requestSize, sizes[i]);
}

TEST(Fio, BandwidthTableMonotoneNondecreasing)
{
    const FioProfiler profiler(makeHddParams());
    const LookupTable table = profiler.bandwidthTable(IoKind::Read);
    double prev = 0.0;
    for (const auto &[x, y] : table.points()) {
        EXPECT_GE(y, prev * 0.99) << "at request size " << x;
        prev = y;
    }
}

TEST(Fio, WriteTableBelowOrEqualReadCeiling)
{
    const FioProfiler profiler(makeHddParams());
    const LookupTable write = profiler.bandwidthTable(IoKind::Write);
    EXPECT_NEAR(toMiBps(write.at(static_cast<double>(mib(365)))), 100.0,
                10.0);
}

TEST(Fio, InvalidConfigRejected)
{
    const FioProfiler ok(makeHddParams());
    EXPECT_THROW(ok.measure(IoKind::Read, 0), FatalError);
}

/**
 * Property sweep: for every request size, fio-measured bandwidth is
 * within 15% of the closed-form min(BW, IOPS * rs) oracle.
 */
class FioOracle : public ::testing::TestWithParam<Bytes>
{};

TEST_P(FioOracle, HddWithinTolerance)
{
    const DiskParams hdd = makeHddParams();
    const FioProfiler profiler(hdd);
    const Bytes rs = GetParam();
    const double expected = hdd.effectiveBandwidth(IoKind::Read, rs);
    const double measured =
        profiler.measure(IoKind::Read, rs).bandwidth;
    EXPECT_NEAR(measured, expected, expected * 0.15);
}

TEST_P(FioOracle, SsdWriteWithinTolerance)
{
    const DiskParams ssd = makeSsdParams();
    const FioProfiler profiler(ssd);
    const Bytes rs = GetParam();
    const double expected = ssd.effectiveBandwidth(IoKind::Write, rs);
    const double measured =
        profiler.measure(IoKind::Write, rs).bandwidth;
    EXPECT_NEAR(measured, expected, expected * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FioOracle,
                         ::testing::Values(kib(4), kib(8), kib(30),
                                           kib(128), mib(1), mib(27),
                                           mib(128), mib(365)));

} // namespace
} // namespace doppio::storage
