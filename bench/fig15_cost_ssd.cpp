/**
 * @file
 * Reproduces Fig. 15: cost and runtime when a pd-ssd backs Spark
 * local (HDFS fixed at 1 TB standard disk), swept from 20 GB to
 * 3.2 TB, plus the headline comparison: the SSD-local optimum is
 * ~1.1x cheaper than the HDD-local optimum and 38%/57% cheaper than
 * R1/R2 (paper §VI-3/4).
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
    const cloud::GcpPricing pricing;
    cloud::CostOptimizer::Options options;
    options.jobs = bench::benchJobs(argc, argv);
    const cloud::CostOptimizer optimizer(app, pricing, options);

    cloud::CloudConfig base;
    base.workers = 10;
    base.vcpus = 16;
    base.hdfsType = cloud::CloudDiskType::Standard;
    base.hdfsSize = 1000 * kGB;
    base.localType = cloud::CloudDiskType::Ssd;

    TablePrinter table(
        "Fig. 15: SSD as Spark local (HDFS = 1 TB HDD)");
    table.setHeader({"SSD size (GB)", "runtime (min)", "cost ($)"});
    std::vector<Bytes> sizes;
    for (Bytes gb = 20; gb <= 3200; gb *= 2)
        sizes.push_back(gb * kGB);
    for (const cloud::Evaluation &eval :
         optimizer.sweepLocalSize(base, sizes)) {
        table.addRow(
            {TablePrinter::num(
                 static_cast<double>(eval.config.localSize) / 1e9, 0),
             TablePrinter::num(eval.seconds / 60.0, 1),
             TablePrinter::num(eval.cost, 2)});
    }
    table.print(std::cout);
    std::cout << "\n";

    // Headline comparison.
    const cloud::Evaluation best_any = optimizer.optimize();
    cloud::CostOptimizer::Options hdd_only;
    hdd_only.localTypes = {cloud::CloudDiskType::Standard};
    hdd_only.jobs = options.jobs;
    const cloud::Evaluation best_hdd =
        cloud::CostOptimizer(app, pricing, hdd_only).optimize();
    const cloud::Evaluation r1 =
        optimizer.evaluate(cloud::referenceR1());
    const cloud::Evaluation r2 =
        optimizer.evaluate(cloud::referenceR2());

    TablePrinter summary(
        "Optimal configurations (paper: SSD optimum ~1.1x cheaper "
        "than HDD optimum; 38%/57% cheaper than R1/R2)");
    summary.setHeader(
        {"configuration", "runtime (min)", "cost ($)", "savings"});
    auto row = [&](const std::string &name,
                   const cloud::Evaluation &eval,
                   const cloud::Evaluation &reference) {
        summary.addRow({name + "  " + eval.config.describe(),
                        TablePrinter::num(eval.seconds / 60.0, 1),
                        TablePrinter::num(eval.cost, 2),
                        TablePrinter::percent(
                            1.0 - best_any.cost / reference.cost)});
    };
    summary.addRow({"optimal (any)  " + best_any.config.describe(),
                    TablePrinter::num(best_any.seconds / 60.0, 1),
                    TablePrinter::num(best_any.cost, 2), "-"});
    summary.addRow({"optimal (HDD)  " + best_hdd.config.describe(),
                    TablePrinter::num(best_hdd.seconds / 60.0, 1),
                    TablePrinter::num(best_hdd.cost, 2),
                    TablePrinter::num(best_hdd.cost / best_any.cost,
                                      2) +
                        "x vs any"});
    row("R1", r1, r1);
    row("R2", r2, r2);
    summary.print(std::cout);
    return 0;
}
