/**
 * @file
 * perfbench: one benchmark workload per process.
 *
 *   perfbench --workload fleet_scale|fleet_slo|calibrate
 *             --seed N --seconds S --trace 0|1
 *
 * Prints one JSON line on stdout: correctness counts, the fingerprint
 * of the workload's deterministic outputs, and the end-to-end metrics
 * (--trace 0) or the per-layer metrics (--trace 1). Diagnostics go to
 * stderr. perfbench/run.py builds this binary and wraps it.
 */
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace perfbench {

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fleet_scale|fleet_slo|calibrate "
                 "--seed N --seconds S --trace 0|1\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage(argv[0]);
            options.trace = std::strcmp(value, "1") == 0;
        } else {
            usage(argv[0]);
        }
        if (end != nullptr && *end != '\0')
            usage(argv[0]);
    }
    if (argc % 2 == 0 || options.seconds <= 0.0)
        usage(argv[0]);

    try {
        perfbench::Result result;
        if (options.workload == "fleet_scale")
            result = perfbench::runFleetScale(options);
        else if (options.workload == "fleet_slo")
            result = perfbench::runFleetSlo(options);
        else if (options.workload == "calibrate")
            result = perfbench::runCalibrate(options);
        else
            usage(argv[0]);
        result.print();
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
