/**
 * @file
 * svcbench: end-to-end benchmark of the compile service.
 *
 *   svcbench --workload <warm_compile|mixed_simulate>
 *            --seed N --seconds S --trace <0|1> [--out DIR]
 *   svcbench --self-test
 *
 * Prints a human-readable report, then one JSON line:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). Exits 1 when any check failed, 2 on bad usage.
 */
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "telemetry/json.h"

namespace {

int
Usage(const std::string& problem)
{
    std::cerr << "svcbench: " << problem << "\n"
              << "usage: svcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n"
                 "       svcbench --self-test\n";
    return 2;
}

std::string
Number(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
Print(const svcbench::Options& options, const svcbench::Outcome& outcome)
{
    const bool correct = outcome.failed == 0;
    std::cout << "svcbench " << options.workload << " seed=" << options.seed
              << " seconds=" << options.seconds
              << " trace=" << options.trace << "\n";
    for (const std::string& failure : outcome.failures) {
        std::cout << "  FAILED: " << failure << "\n";
    }
    for (const auto* list : {&outcome.metrics, &outcome.notes}) {
        for (const svcbench::Metric& m : *list) {
            std::cout << "  " << m.name << " = " << Number(m.value) << " "
                      << m.unit << " (n=" << m.count << ")\n";
        }
    }
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max(1L, outcome.attempted)
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    bool first = true;
    for (const svcbench::Metric& m : outcome.metrics) {
        line << (first ? "" : ", ") << "\""
             << xtalk::telemetry::JsonEscape(m.name) << "\": {\"value\": "
             << Number(m.value) << ", \"unit\": \""
             << xtalk::telemetry::JsonEscape(m.unit) << "\"}";
        first = false;
    }
    line << "}}";
    std::cout << line.str() << std::endl;
}

}  // namespace

int
main(int argc, char** argv)
{
    svcbench::Options options;
    options.cpus = std::max(1u, std::thread::hardware_concurrency());
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") {
            const int failures = svcbench::StatsSelfTest();
            std::cout << "stats self-test: "
                      << (failures == 0 ? "ok" : "FAILED") << "\n";
            return failures == 0 ? 0 : 1;
        }
        if (i + 1 >= argc) {
            return Usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else if (flag == "--out") {
                options.out_dir = value;
            } else {
                return Usage("unknown flag " + flag);
            }
        } catch (const std::exception&) {
            return Usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_workload || !(options.seconds > 0.0)) {
        return Usage("--workload and a positive --seconds are required");
    }
    // The engine logs each request at info level; keep stdout the report.
    xtalk::SetLogLevel(xtalk::LogLevel::kWarn);
    svcbench::Outcome outcome;
    try {
        outcome = options.trace ? svcbench::RunTraced(options)
                                : svcbench::RunUntraced(options);
    } catch (const std::exception& e) {
        std::cerr << "svcbench: " << e.what() << "\n";
        return 1;
    }
    Print(options, outcome);
    return outcome.failed == 0 ? 0 : 1;
}
