/**
 * @file
 * The paper's §VI-1 cloud setup: the worker template and the
 * profiling recipe that fits an application's model on cloud sample
 * disks before the cost optimizer searches the configuration space.
 */

#ifndef DOPPIO_CLOUD_PROFILING_H
#define DOPPIO_CLOUD_PROFILING_H

#include <string>

#include "cluster/cluster_config.h"
#include "model/profiler.h"

namespace doppio::cloud {

/**
 * @p workers n1-standard-16 nodes (16 vCPUs, 60 GiB of RAM, 45 GiB
 * of it for the executor) with a 1 TB pd-standard HDFS disk and a
 * 2 TB pd-standard Spark-local disk; experiments resize the disks.
 */
cluster::ClusterConfig cloudWorkers(int workers);

/**
 * Fit @p runner's model the §VI-1 way: the four sample runs on
 * cloudWorkers() nodes at P = 16 with a 500 GB pd-ssd and a 500 GB
 * pd-standard sample disk, plus the GC run.
 */
model::AppModel fitOnCloud(const model::WorkloadRunner &runner,
                           const std::string &name);

} // namespace doppio::cloud

#endif // DOPPIO_CLOUD_PROFILING_H
