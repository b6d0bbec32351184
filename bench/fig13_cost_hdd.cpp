/**
 * @file
 * Reproduces Table V and Fig. 13: genome-sequencing cost in Google
 * Cloud using standard (HDD) persistent disks, swept over the HDFS
 * disk size (13a, local fixed at 2 TB) and the Spark-local disk size
 * (13b, HDFS fixed at 1 TB), plus the comparison against the R1
 * (Apache Spark) and R2 (Cloudera) recommended configurations.
 *
 * Paper shapes to check: cost minimum around HDFS = 1 TB and
 * local = 2 TB; the optimal HDD configuration beats R1 by ~32% and R2
 * by ~52%.
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
    const cloud::GcpPricing pricing;
    TablePrinter tablev("Table V: disk price in Google Cloud");
    tablev.setHeader({"Type", "Price (per GB/month)"});
    tablev.addRow({"Standard provisioned space",
                   "$" + TablePrinter::num(pricing.standardGbPerMonth,
                                           3)});
    tablev.addRow(
        {"SSD provisioned space",
         "$" + TablePrinter::num(pricing.ssdGbPerMonth, 3)});
    tablev.print(std::cout);
    std::cout << "\n";

    const workloads::Gatk4 gatk4;
    const model::AppModel app =
        cloud::fitOnCloud(gatk4.runner(), "GATK4-cloud");
    cloud::CostOptimizer::Options options;
    options.localTypes = {cloud::CloudDiskType::Standard};
    options.jobs = bench::benchJobs(argc, argv);
    const cloud::CostOptimizer optimizer(app, pricing, options);

    cloud::CloudConfig base;
    base.workers = 10;
    base.vcpus = 16;
    base.hdfsSize = 1000 * kGB;
    base.localSize = 2000 * kGB;

    std::vector<Bytes> sizes;
    for (Bytes gb = 250; gb <= 8000; gb *= 2)
        sizes.push_back(gb * kGB);

    TablePrinter fig13a(
        "Fig. 13a: cost vs HDFS HDD size (local = 2 TB HDD)");
    fig13a.setHeader({"HDFS size (GB)", "runtime (min)", "cost ($)"});
    for (const cloud::Evaluation &eval :
         optimizer.sweepHdfsSize(base, sizes)) {
        fig13a.addRow(
            {TablePrinter::num(
                 static_cast<double>(eval.config.hdfsSize) / 1e9, 0),
             TablePrinter::num(eval.seconds / 60.0, 1),
             TablePrinter::num(eval.cost, 2)});
    }
    fig13a.print(std::cout);
    std::cout << "\n";

    TablePrinter fig13b(
        "Fig. 13b: cost vs Spark-local HDD size (HDFS = 1 TB HDD)");
    fig13b.setHeader({"local size (GB)", "runtime (min)", "cost ($)"});
    for (const cloud::Evaluation &eval :
         optimizer.sweepLocalSize(base, sizes)) {
        fig13b.addRow(
            {TablePrinter::num(
                 static_cast<double>(eval.config.localSize) / 1e9, 0),
             TablePrinter::num(eval.seconds / 60.0, 1),
             TablePrinter::num(eval.cost, 2)});
    }
    fig13b.print(std::cout);
    std::cout << "\n";

    const cloud::Evaluation best = optimizer.optimize();
    const cloud::Evaluation r1 =
        optimizer.evaluate(cloud::referenceR1());
    const cloud::Evaluation r2 =
        optimizer.evaluate(cloud::referenceR2());
    TablePrinter summary("HDD-only optimum vs recommendations "
                         "(paper: 32% / 52% cheaper)");
    summary.setHeader(
        {"configuration", "runtime (min)", "cost ($)", "vs best"});
    auto row = [&](const char *name, const cloud::Evaluation &eval) {
        summary.addRow({std::string(name) + "  " +
                            eval.config.describe(),
                        TablePrinter::num(eval.seconds / 60.0, 1),
                        TablePrinter::num(eval.cost, 2),
                        TablePrinter::percent(
                            1.0 - best.cost / eval.cost)});
    };
    row("optimal", best);
    row("R1", r1);
    row("R2", r2);
    summary.print(std::cout);
    return 0;
}
