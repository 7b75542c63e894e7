// perfbench -- the repository benchmark driver (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--data-dir DIR] [--scratch-dir DIR]
//   perfbench --write-reference DIR
//
// Prints an environment line, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero, without a result line, when the run could not be set up.
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "thread";
#else
constexpr const char* kSanitizer = "";
#endif

/// nproc, compiler, build type and seed, recorded with every result.
void printEnvironment(const Options& options) {
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    const std::string sanitizer = kSanitizer;
#ifdef NDEBUG
    const bool assertions = false;
#else
    const bool assertions = true;
#endif
    const bool suspect =
        buildType == "Debug" || !sanitizer.empty() || assertions;
    std::cout << "{\"env\": {\"workload\": \"" << options.workload
              << "\", \"seed\": " << options.seed
              << ", \"seconds\": " << options.seconds
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"smoke\": " << (options.smoke ? "true" : "false")
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"compiler\": \"GCC " << __VERSION__
              << "\", \"build_type\": \"" << buildType
              << "\", \"sanitizer\": \"" << sanitizer
              << "\", \"unoptimized_or_instrumented\": "
              << (suspect ? "true" : "false") << "}}\n";
    if (suspect) {
        std::cerr << "perfbench: WARNING: Debug, assertion or sanitizer "
                     "build; timings are not comparable\n";
    }
}

Options parseArgs(int argc, char** argv, std::string* writeReference) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            options.trace = v == "1";
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--data-dir") {
            options.dataDir = value();
        } else if (arg == "--scratch-dir") {
            options.scratchDir = value();
        } else if (arg == "--write-reference") {
            *writeReference = value();
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (!(options.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
    }
    return options;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        std::string writeReference;
        const Options options = parseArgs(argc, argv, &writeReference);
        if (!writeReference.empty()) {
            writePaperReferences(writeReference);
            return 0;
        }
        using Workload = void (*)(const Options&, Report&);
        const std::map<std::string, Workload> workloads = {
            {"paper_contours", runPaperContours},
            {"surface_grid", runSurfaceGrid},
            {"serve_mix", runServeMix},
        };
        const auto workload = workloads.find(options.workload);
        if (workload == workloads.end()) {
            throw std::invalid_argument("unknown workload '" +
                                        options.workload + "'");
        }
        printEnvironment(options);
        Report report(options.trace);
        workload->second(options, report);
        std::cout << report.json() << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
