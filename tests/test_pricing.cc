/**
 * @file
 * Unit tests for Google Cloud pricing (Table V) and reference configs.
 */

#include <gtest/gtest.h>

#include "cloud/pricing.h"
#include "common/logging.h"

namespace doppio::cloud {
namespace {

TEST(Pricing, TableVDiskRates)
{
    const GcpPricing p;
    EXPECT_DOUBLE_EQ(p.standardGbPerMonth, 0.040);
    EXPECT_DOUBLE_EQ(p.ssdGbPerMonth, 0.170);
    // SSD is 4.2x the standard price (paper §VI).
    EXPECT_NEAR(p.ssdGbPerMonth / p.standardGbPerMonth, 4.25, 0.01);
}

TEST(Pricing, DiskPerHour)
{
    const GcpPricing p;
    // 1000 GB standard: 1000 * 0.04 / 730 = $0.0548/h.
    EXPECT_NEAR(p.diskPerHour(CloudDiskType::Standard, 1000 * kGB),
                0.0548, 0.0001);
    EXPECT_NEAR(p.diskPerHour(CloudDiskType::Ssd, 200 * kGB), 0.0466,
                0.0001);
}

TEST(Pricing, FleetCostPerHour)
{
    const GcpPricing p;
    CloudConfig c;
    c.workers = 10;
    c.vcpus = 16;
    c.hdfsType = CloudDiskType::Standard;
    c.hdfsSize = 1000 * kGB;
    c.localType = CloudDiskType::Ssd;
    c.localSize = 200 * kGB;
    const double per_worker =
        16 * p.vcpuPerHour + 0.0548 + 0.0466;
    EXPECT_NEAR(fleetCostPerHour(c, p), 10 * per_worker, 0.001);
}

TEST(Pricing, JobCostScalesWithTime)
{
    const GcpPricing p;
    CloudConfig c;
    c.workers = 1;
    c.vcpus = 16;
    c.hdfsSize = kGB;
    c.localSize = kGB;
    const double one_hour = jobCost(c, p, 3600.0);
    EXPECT_NEAR(jobCost(c, p, 7200.0), 2.0 * one_hour, 1e-9);
}

TEST(Pricing, ReferenceR1)
{
    // Spark hardware-provisioning guide: 8 x 1 TB per 16-vCPU worker.
    const CloudConfig r1 = referenceR1();
    EXPECT_EQ(r1.workers, 10);
    EXPECT_EQ(r1.vcpus, 16);
    EXPECT_EQ(r1.hdfsSize + r1.localSize, 8000 * kGB);
    EXPECT_EQ(r1.hdfsType, CloudDiskType::Standard);
}

TEST(Pricing, ReferenceR2TwiceR1Disks)
{
    const CloudConfig r1 = referenceR1();
    const CloudConfig r2 = referenceR2();
    EXPECT_EQ(r2.hdfsSize + r2.localSize,
              2 * (r1.hdfsSize + r1.localSize));
}

TEST(Pricing, R2CostsMoreThanR1AtEqualRuntime)
{
    const GcpPricing p;
    EXPECT_GT(fleetCostPerHour(referenceR2(), p),
              fleetCostPerHour(referenceR1(), p));
}

TEST(Pricing, DescribeIsHumanReadable)
{
    const std::string desc = referenceR1().describe();
    EXPECT_NE(desc.find("pd-standard"), std::string::npos);
    EXPECT_NE(desc.find("16 vCPU"), std::string::npos);
}

TEST(Pricing, InvalidConfigFatal)
{
    const GcpPricing p;
    CloudConfig bad;
    bad.workers = 0;
    EXPECT_THROW(fleetCostPerHour(bad, p), FatalError);
}

} // namespace
} // namespace doppio::cloud
