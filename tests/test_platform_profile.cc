/**
 * @file
 * Unit tests for platform (disk) profiles.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "cloud/gcp_disk.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/units.h"
#include "model/platform_profile.h"
#include "storage/fio.h"

namespace doppio::model {
namespace {

TEST(PlatformProfile, FromDisksBuildsAllTables)
{
    const PlatformProfile p = PlatformProfile::fromDisks(
        storage::makeSsdParams(), storage::makeHddParams());
    EXPECT_FALSE(p.hdfsRead.empty());
    EXPECT_FALSE(p.hdfsWrite.empty());
    EXPECT_FALSE(p.localRead.empty());
    EXPECT_FALSE(p.localWrite.empty());
}

TEST(PlatformProfile, RoutesOpsToCorrectDevice)
{
    // SSD on HDFS, HDD on Spark local: shuffle/persist must see HDD
    // numbers, HDFS ops must see SSD numbers.
    const PlatformProfile p = PlatformProfile::fromDisks(
        storage::makeSsdParams(), storage::makeHddParams());
    const double rs = static_cast<double>(kib(30));
    const double shuffle =
        p.bandwidthFor(storage::IoOp::ShuffleRead, rs);
    const double hdfs = p.bandwidthFor(storage::IoOp::HdfsRead, rs);
    EXPECT_NEAR(toMiBps(shuffle), 15.0, 2.0);
    EXPECT_NEAR(toMiBps(hdfs), 480.0, 40.0);
    EXPECT_NEAR(toMiBps(p.bandwidthFor(storage::IoOp::PersistRead, rs)),
                15.0, 2.0);
}

TEST(PlatformProfile, WriteOpsUseWriteTables)
{
    const PlatformProfile p = PlatformProfile::fromDisks(
        storage::makeHddParams(), storage::makeHddParams());
    const double rs = static_cast<double>(mib(365));
    EXPECT_NEAR(
        toMiBps(p.bandwidthFor(storage::IoOp::ShuffleWrite, rs)), 100.0,
        10.0);
    EXPECT_NEAR(
        toMiBps(p.bandwidthFor(storage::IoOp::PersistWrite, rs)), 100.0,
        10.0);
    EXPECT_NEAR(toMiBps(p.bandwidthFor(storage::IoOp::HdfsWrite, rs)),
                100.0, 10.0);
}

TEST(PlatformProfile, RawOpsAreFatal)
{
    const PlatformProfile p = PlatformProfile::fromDisks(
        storage::makeHddParams(), storage::makeHddParams());
    EXPECT_THROW(p.bandwidthFor(storage::IoOp::RawRead, 1.0),
                 FatalError);
}

TEST(PlatformProfile, BandwidthMonotoneInRequestSize)
{
    const PlatformProfile p = PlatformProfile::fromDisks(
        storage::makeHddParams(), storage::makeHddParams());
    double prev = 0.0;
    for (double rs = 4096.0; rs <= 134217728.0; rs *= 2.0) {
        const double bw =
            p.bandwidthFor(storage::IoOp::ShuffleRead, rs);
        EXPECT_GE(bw, prev * 0.99);
        prev = bw;
    }
}

TEST(PlatformProfile, MemoizedTablesEqualAFreshFioSweep)
{
    // Differential oracle for the process-wide memo: on its first call
    // and on a repeat the memo serves, fromDisks returns exactly the
    // tables a fresh FioProfiler sweep builds, point for point and bit
    // for bit, for every device class.
    const std::vector<storage::DiskParams> disks = {
        storage::makeHddParams(),
        storage::makeSsdParams(),
        storage::makeNvmeParams(),
        cloud::makeCloudDiskParams(cloud::CloudDiskType::Standard,
                                   700 * cloud::kGB),
        cloud::makeCloudDiskParams(cloud::CloudDiskType::Ssd,
                                   300 * cloud::kGB),
    };
    for (const storage::DiskParams &disk : disks) {
        for (int call = 1; call <= 2; ++call) {
            SCOPED_TRACE(disk.model + " call " + std::to_string(call));
            const PlatformProfile p = PlatformProfile::fromDisks(disk, disk);
            const storage::FioProfiler fio(disk);
            const auto read =
                fio.bandwidthTable(storage::IoKind::Read).points();
            const auto write =
                fio.bandwidthTable(storage::IoKind::Write).points();
            EXPECT_EQ(p.hdfsRead.points(), read);
            EXPECT_EQ(p.hdfsWrite.points(), write);
            EXPECT_EQ(p.localRead.points(), read);
            EXPECT_EQ(p.localWrite.points(), write);
        }
    }
}

TEST(PlatformProfile, LookupsRaceSafelyWithFills)
{
    // The memo's race check under TSan: one thread keeps looking up a
    // profiled disk while the others fill the memo with disks that
    // sort next to it (sizes no other test here uses), so their
    // inserts rewrite the links its lookups read.
    const auto ssd = [](Bytes gb) {
        return cloud::makeCloudDiskParams(cloud::CloudDiskType::Ssd,
                                          gb * cloud::kGB);
    };
    const storage::DiskParams warm = ssd(165);
    const PlatformProfile expected = PlatformProfile::fromDisks(warm, warm);
    const std::vector<storage::DiskParams> cold = {ssd(110), ssd(220),
                                                   ssd(440)};
    std::atomic<std::size_t> filled{0};
    const auto task = [&](std::size_t i) {
        if (i < cold.size()) {
            const PlatformProfile p =
                PlatformProfile::fromDisks(cold[i], cold[i]);
            filled.fetch_add(1, std::memory_order_relaxed);
            return p;
        }
        PlatformProfile p;
        do {
            p = PlatformProfile::fromDisks(warm, warm);
        } while (filled.load(std::memory_order_relaxed) < cold.size());
        return p;
    };
    const std::size_t tasks = cold.size() + 1;
    const auto got =
        common::SweepRunner(static_cast<int>(tasks)).map(tasks, task);
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(got[i].localRead.points(),
                  PlatformProfile::fromDisks(cold[i], cold[i])
                      .localRead.points());
    EXPECT_EQ(got.back().localRead.points(), expected.localRead.points());
}

} // namespace
} // namespace doppio::model
