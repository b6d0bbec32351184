/**
 * @file
 * doppio_perfbench: the repository benchmark's executable.
 *
 *   doppio_perfbench --workload cli-terasort|cli-lr|plan|all
 *                    [--seed N] [--seconds S] [--trace 0|1]
 *                    [--spans-out FILE]
 *   doppio_perfbench --reference cli-terasort|cli-lr --seeds N
 *
 * (--setup-probe 1 is internal: a run spawns itself with it to time
 * set-up in a fresh process.)
 *
 * A run prints a human-readable report and, as its last line, one JSON
 * result object (see bench.h). --reference prints the reference table
 * for seeds 0..N-1 in the form reference.cc holds it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include <limits.h>
#include <unistd.h>

#include "bench.h"
#include "cli_runs.h"
#include "workloads/registry.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: doppio_perfbench --workload "
                 "cli-terasort|cli-lr|plan|all [--seed N] [--seconds S] "
                 "[--trace 0|1] [--spans-out FILE]\n"
                 "       doppio_perfbench --reference cli-terasort|cli-lr "
                 "--seeds N\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string(flag) + " needs a non-negative integer").c_str());
    return value;
}

int
printReference(const std::string &benchWorkload, std::uint64_t seeds)
{
    const std::string name = cliWorkloadName(benchWorkload);
    if (name.empty())
        usage("--reference needs cli-terasort or cli-lr");
    const auto workload = doppio::workloads::makeWorkload(name);
    const doppio::spark::SparkConf conf = cliSparkConf();
    std::size_t stages = 0;
    std::uint64_t tasks = 0;
    std::string seconds;
    doppio::spark::AppMetrics metrics;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
        metrics = workload->run(cliClusterConfig(seed), conf);
        char buf[48];
        std::snprintf(buf, sizeof buf, "%s%.17g,",
                      seed % 3 ? " " : "\n            ", metrics.seconds());
        seconds += buf;
    }
    for (const auto *stage : metrics.allStages()) {
        ++stages;
        tasks += static_cast<std::uint64_t>(stage->numTasks);
    }
    std::printf("        {\"%s\", %zu, %zu, %llu, {%s\n        }},\n",
                benchWorkload.c_str(), metrics.jobs.size(), stages,
                static_cast<unsigned long long>(tasks), seconds.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool haveWorkload = false;
    std::string spansOut;
    std::string reference;
    std::uint64_t seeds = 0;
    bool probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            options.seed = parseCount(value, "--seed");
        } else if (flag == "--seconds") {
            options.seconds =
                static_cast<double>(parseCount(value, "--seconds"));
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            options.trace = value[0] == '1';
        } else if (flag == "--spans-out") {
            spansOut = value;
        } else if (flag == "--setup-probe") {
            probe = std::strcmp(value, "1") == 0;
        } else if (flag == "--reference") {
            reference = value;
        } else if (flag == "--seeds") {
            seeds = parseCount(value, "--seeds");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }

    try {
        if (!reference.empty())
            return printReference(reference, seeds);
        if (!haveWorkload)
            usage("--workload is required");
        if (probe) {
            setUpFirstCall(options);
            return 0;
        }
        char exe[PATH_MAX];
        const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
        if (len <= 0) {
            std::fprintf(stderr, "error: cannot locate this executable\n");
            return 1;
        }
        options.executable.assign(exe, static_cast<std::size_t>(len));

        std::vector<std::string> workloads = {options.workload};
        if (options.workload == "all")
            workloads = benchWorkloads();
        Outcome last;
        for (const std::string &workload : workloads) {
            Options one = options;
            one.workload = workload;
            Tracer tracer;
            last = runBenchmark(one, tracer, std::cout);
            if (options.trace && !spansOut.empty()) {
                const std::string path =
                    workloads.size() > 1 ? spansOut + "." + workload : spansOut;
                std::ofstream out(path);
                if (!out) {
                    std::fprintf(stderr, "error: cannot write %s\n",
                                 path.c_str());
                    return 1;
                }
                tracer.writeChromeJson(out);
                std::cout << "wrote " << tracer.spans().size()
                          << " spans to " << path << "\n";
            }
            std::cout << last.resultJson() << std::endl;
        }
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
