#include "cloud/profiling.h"

#include "cloud/gcp_disk.h"

namespace doppio::cloud {

cluster::ClusterConfig
cloudWorkers(int workers)
{
    cluster::ClusterConfig config;
    config.numSlaves = workers;
    config.node.cores = 16;
    config.node.ram = 60 * kGiB;
    config.node.executorMemory = 45 * kGiB;
    config.node.hdfsDisk =
        makeCloudDiskParams(CloudDiskType::Standard, 1000 * kGB);
    config.node.localDisk =
        makeCloudDiskParams(CloudDiskType::Standard, 2000 * kGB);
    return config;
}

model::AppModel
fitOnCloud(const model::WorkloadRunner &runner, const std::string &name)
{
    model::Profiler::Options options;
    options.fitGc = true;
    options.highCores = 16;
    options.ssd = makeCloudDiskParams(CloudDiskType::Ssd, 500 * kGB);
    // The paper starts from a 200 GB standard disk; at 200 GB the
    // 30 KB shuffle reads run at ~4 MB/s and the sample run sits in an
    // extreme regime, so we follow the paper's re-sampling rule and
    // use 500 GB (still comfortably I/O-bound at P=16).
    options.hdd = makeCloudDiskParams(CloudDiskType::Standard, 500 * kGB);
    // The profiler sets each sample run's node count itself.
    model::Profiler profiler(runner, cloudWorkers(options.sampleNodes),
                             spark::SparkConf{}, options);
    return profiler.fit(name);
}

} // namespace doppio::cloud
