/**
 * @file
 * Reproduces Fig. 14: model verification on the cloud — GATK4 runtime
 * measured (simulated cloud cluster) vs model-predicted for ten
 * 16-vCPU workers with 1 TB standard-disk HDFS, sweeping the
 * standard-disk Spark-local size from 200 GB to 3.2 TB.
 *
 * Paper shapes to check: runtime falls until ~2 TB (the pd-standard
 * IOPS knee) then flattens; average error < 4%.
 */

#include <iostream>

#include "bench_util.h"
#include "cloud/optimizer.h"
#include "cloud/profiling.h"
#include "workloads/gatk4.h"

using namespace doppio;
using cloud::kGB;

int
main(int argc, char **argv)
{
    const workloads::Gatk4 gatk4;
    const model::AppModel app =
        cloud::fitOnCloud(gatk4.runner(), "GATK4-cloud");
    cloud::CostOptimizer::Options options;
    options.jobs = bench::benchJobs(argc, argv);
    const cloud::CostOptimizer optimizer(app, cloud::GcpPricing{},
                                         options);

    const std::vector<Bytes> sizes = {200, 400, 800, 1600, 2000,
                                      2400, 3200};
    // Each size point is an independent cluster simulation plus a
    // model query; fan them out and commit rows at their input index
    // so the table is byte-identical for any --jobs value.
    const common::SweepRunner runner(options.jobs);
    const std::vector<bench::ExpModelRow> rows =
        runner.map(sizes.size(), [&](std::size_t i) {
            const Bytes gb = sizes[i];
            cluster::ClusterConfig config = cloud::cloudWorkers(10);
            config.node.localDisk = cloud::makeCloudDiskParams(
                cloud::CloudDiskType::Standard, gb * kGB);
            spark::SparkConf conf;
            conf.executorCores = 16;
            const double exp_s = gatk4.run(config, conf).seconds();

            cloud::CloudConfig cc;
            cc.workers = 10;
            cc.vcpus = 16;
            cc.hdfsSize = 1000 * kGB;
            cc.localSize = gb * kGB;
            const double model_s = optimizer.evaluate(cc).seconds;

            return bench::ExpModelRow{std::to_string(gb) + " GB local",
                                      exp_s, model_s};
        });
    bench::printExpModel(
        "Fig. 14: GATK4 on 10x16 vCPU workers, 1 TB HDD HDFS, "
        "varying HDD local size (paper: <4% error, flat beyond 2 TB)",
        rows);
    return 0;
}
