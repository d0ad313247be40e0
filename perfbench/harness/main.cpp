// perfbench: the end-to-end benchmark harness of spothost.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//             [--spans FILE]
//
// Workloads: fleet_calm, fleet_storm, sweep_paper, serve_tail (see
// perfbench/README.md). With --trace 0 the harness times the production path
// with nothing attached and prints the end-to-end metrics; with --trace 1 it
// runs one untraced and one traced pass and prints the per-layer metrics.
// Standard output ends with three lines: `env {...}`, `outputs {...}` (the
// program's checked outputs) and the result object. perfbench/run.py builds
// this binary, pins its environment and compares the outputs with the
// recorded ones.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "report.hpp"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload fleet_calm|fleet_storm|sweep_paper|"
               "serve_tail [--seed N] [--seconds S] [--trace 0|1] [--tiny] "
               "[--spans FILE]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != s.size() || s.empty() || s[0] == '-') {
    usage(std::string("bad ") + what + ": " + s);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = parse_u64(next(), "seed");
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(next(), "seconds"));
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--spans") {
      options.spans_path = next();
    } else {
      usage("unknown option " + arg);
    }
  }

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "fleet_calm" || options.workload == "fleet_storm") {
    run = run_fleet;
  } else if (options.workload == "sweep_paper") {
    run = run_sweep;
  } else if (options.workload == "serve_tail") {
    run = run_serve;
  } else {
    usage("unknown workload '" + options.workload + "'");
  }

  Result result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  std::cout << "env {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_string(__VERSION__)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed << ", \"seconds\": "
            << json_number(options.seconds) << ", \"trace\": "
            << (options.trace ? 1 : 0) << ", \"tiny\": " << (options.tiny ? 1 : 0)
            << "}\n";
  std::cout << "outputs " << result.outputs << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << json_string(m.name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
