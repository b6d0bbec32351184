/**
 * @file
 * Unit tests for the GCP persistent-disk model.
 */

#include <gtest/gtest.h>

#include "cloud/gcp_disk.h"
#include "common/logging.h"

namespace doppio::cloud {
namespace {

TEST(GcpDisk, TypeNames)
{
    EXPECT_STREQ(cloudDiskTypeName(CloudDiskType::Standard),
                 "pd-standard");
    EXPECT_STREQ(cloudDiskTypeName(CloudDiskType::Ssd), "pd-ssd");
}

TEST(GcpDisk, StandardScalesLinearly)
{
    const auto d1 = makeCloudDiskParams(CloudDiskType::Standard,
                                        200 * kGB);
    const auto d2 = makeCloudDiskParams(CloudDiskType::Standard,
                                        400 * kGB);
    EXPECT_NEAR(d2.readIops, 2.0 * d1.readIops, 1.0);
    EXPECT_NEAR(d2.readBandwidth, 2.0 * d1.readBandwidth, 1e3);
}

TEST(GcpDisk, StandardIopsCapAt2TB)
{
    // 0.75 IOPS/GB caps at 1500 around 2 TB — the knee behind the
    // paper's Fig. 14 flattening.
    const auto at2tb = makeCloudDiskParams(CloudDiskType::Standard,
                                           2000 * kGB);
    const auto at4tb = makeCloudDiskParams(CloudDiskType::Standard,
                                           4000 * kGB);
    EXPECT_NEAR(at2tb.readIops, 1500.0, 1.0);
    EXPECT_NEAR(at4tb.readIops, 1500.0, 1.0);
}

TEST(GcpDisk, ThroughputCaps)
{
    const auto big = makeCloudDiskParams(CloudDiskType::Standard,
                                         8000 * kGB);
    EXPECT_NEAR(toMiBps(big.readBandwidth), 180.0, 1.0);
    EXPECT_NEAR(toMiBps(big.writeBandwidth), 120.0, 1.0);
    const auto ssd = makeCloudDiskParams(CloudDiskType::Ssd,
                                         8000 * kGB);
    EXPECT_NEAR(toMiBps(ssd.readBandwidth), 800.0, 1.0);
}

TEST(GcpDisk, SsdMuchFasterAtSmallRequests)
{
    const auto hdd = makeCloudDiskParams(CloudDiskType::Standard,
                                         500 * kGB);
    const auto ssd = makeCloudDiskParams(CloudDiskType::Ssd,
                                         500 * kGB);
    const double hdd_bw =
        hdd.effectiveBandwidth(storage::IoKind::Read, kib(30));
    const double ssd_bw =
        ssd.effectiveBandwidth(storage::IoKind::Read, kib(30));
    EXPECT_GT(ssd_bw / hdd_bw, 10.0);
}

TEST(GcpDisk, TinyDiskStillAdmits)
{
    const auto tiny = makeCloudDiskParams(CloudDiskType::Standard,
                                          1 * kGB);
    EXPECT_GE(tiny.readIops, 1.0);
    EXPECT_NO_THROW(tiny.validate());
}

TEST(GcpDisk, ZeroSizeFatal)
{
    EXPECT_THROW(makeCloudDiskParams(CloudDiskType::Standard, 0),
                 FatalError);
}

TEST(GcpDisk, DiskTypeMapping)
{
    EXPECT_EQ(makeCloudDiskParams(CloudDiskType::Standard, kGB).type,
              storage::DiskType::Hdd);
    EXPECT_EQ(makeCloudDiskParams(CloudDiskType::Ssd, kGB).type,
              storage::DiskType::Ssd);
}

TEST(GcpDisk, ShuffleReadBandwidthGrowsUntilCap)
{
    // At 30 KB requests the standard disk is IOPS-bound: effective
    // bandwidth grows with size until 2 TB, then flattens (Fig. 14).
    double prev = 0.0;
    for (Bytes gb : {200ULL, 500ULL, 1000ULL, 2000ULL}) {
        const auto d = makeCloudDiskParams(CloudDiskType::Standard,
                                           gb * kGB);
        const double bw =
            d.effectiveBandwidth(storage::IoKind::Read, kib(30));
        EXPECT_GT(bw, prev);
        prev = bw;
    }
    const auto big = makeCloudDiskParams(CloudDiskType::Standard,
                                         3200 * kGB);
    EXPECT_NEAR(big.effectiveBandwidth(storage::IoKind::Read, kib(30)),
                prev, prev * 0.01);
}

} // namespace
} // namespace doppio::cloud
