/**
 * @file
 * perfbench: whole-workload host-time benchmark of the HILOS simulator.
 *
 *   perfbench --workload <sweep|serve_saturated|serve_light|fleet_replay>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Prints a human-readable report, then one JSON result line (the last
 * line of standard output). Exit code 0 when every output check and
 * workload self-check passed, 1 when one failed, 2 on a usage error.
 */
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "harness.h"

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <sweep|serve_saturated|"
                 "serve_light|fleet_replay> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n";
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + key);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opts.workload = value;
        } else if (key == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (!(opts.seconds > 0.0))
                return usage("--seconds must be positive");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            opts.trace = value == "1";
        } else if (key == "--trace-out") {
            opts.trace_out = value;
        } else {
            return usage("unknown option " + key);
        }
        if (end && *end != '\0')
            return usage("bad number for " + key + ": " + value);
    }

    std::unique_ptr<perfbench::Workload> workload;
    if (opts.workload == "sweep")
        workload = perfbench::makeSweepWorkload();
    else if (opts.workload == "serve_saturated")
        workload = perfbench::makeServingWorkload(true);
    else if (opts.workload == "serve_light")
        workload = perfbench::makeServingWorkload(false);
    else if (opts.workload == "fleet_replay")
        workload = perfbench::makeFleetReplayWorkload();
    else
        return usage("unknown workload '" + opts.workload + "'");
    return perfbench::runBenchmark(*workload, opts);
}
