// Benchmark program for the versioned store: three seeded, closed-loop
// workloads over the repository's own libraries.
//
//   perfbench --workload <read_checkout|commit_local|commit_remote>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with tracing alternating off/on and reports the per-layer
// metrics, plus a Chrome trace of the benchmark's own spans. The last
// stdout line is the JSON result; everything before it is for people.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/metrics.h"
#include "common/env.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <read_checkout|commit_local|"
               "commit_remote> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--out-dir <dir>]\n";
  std::exit(2);
}

perfbench::Options Parse(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      auto seed = orpheus::ParseIntStrict(value);
      if (!seed || *seed < 0) Usage("bad --seed " + value);
      opts.seed = static_cast<uint64_t>(*seed);
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opts.seconds > 0)) {
        Usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (!have_seed) Usage("--seed is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = Parse(argc, argv);
  if (!orpheus::MetricsEnabled()) {
    // The per-layer numbers and several gates read the metrics registry.
    std::cerr << "perfbench: needs the metrics registry (ORPHEUS_METRICS "
                 "must not be 0)\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << opts.out_dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  perfbench::Tracer::Get().set_workload(opts.workload);
  perfbench::Tracer::Get().NameThread("main");

  perfbench::Report report;
  std::cout << "workload " << opts.workload << " seed " << opts.seed
            << " seconds " << opts.seconds << " trace " << opts.trace
            << (opts.smoke ? " smoke" : "") << "\n";
  if (opts.workload == "read_checkout") {
    perfbench::RunReadCheckout(opts, &report);
  } else if (opts.workload == "commit_local") {
    perfbench::RunCommit(opts, /*remote=*/false, &report);
  } else if (opts.workload == "commit_remote") {
    perfbench::RunCommit(opts, /*remote=*/true, &report);
  } else {
    Usage("unknown workload '" + opts.workload + "'");
  }

  if (opts.trace) {
    const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".json";
    const bool ok = perfbench::Tracer::Get().WriteChromeJson(path);
    report.Check("trace written to " + path, ok,
                 std::to_string(perfbench::Tracer::Get().num_spans()) +
                     " spans");
  }
  report.Finish(opts.trace);
  return 0;
}
