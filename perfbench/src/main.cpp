// perfbench_driver — runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--root <dir>] [--out-dir <dir>] [--serve-bin <path>]
//
// Workloads: h264_sweep, h264_flight_recorder, cmp_scaleout,
// serve_open_loop (see perfbench/README.md). Untraced runs (--trace 0)
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics from the benchmark's span ledger and write the spans as
// Chrome trace-event JSON into --out-dir. Every failed operation is named on
// stderr. The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the workload ran (failures are part of the result),
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"

namespace {

using namespace perfbench;

int usage() {
  std::fputs(
      "usage: perfbench_driver --workload <h264_sweep|h264_flight_recorder|"
      "cmp_scaleout|serve_open_loop> --seed <n> --seconds <s> --trace <0|1> "
      "[--root <dir>] [--out-dir <dir>] [--serve-bin <path>]\n",
      stderr);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

/// Metric values print with every significant digit a double holds.
void print_metric(bool* first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage();
    ++i;
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && parse_u64(value, &options.seed)) {
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(value, &n) && n <= 1) {
      options.trace = n == 1;
      have_trace = true;
    } else if (arg == "--root") {
      options.root = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--serve-bin") {
      options.serve_bin = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "h264_sweep") run = run_h264_sweep;
  if (options.workload == "h264_flight_recorder") {
    run = run_h264_flight_recorder;
  }
  if (options.workload == "cmp_scaleout") run = run_cmp_scaleout;
  if (options.workload == "serve_open_loop") run = run_serve_open_loop;
  if (run == nullptr) return usage();
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  // Provenance: what produced these numbers (run.py adds the commit).
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%g, \"trace\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"host_cores\": %u}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, build_type(), compiler(),
      std::thread::hardware_concurrency());
  std::fflush(stdout);

  Result result = run(options);
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  if (options.trace) {
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = result.layers.find(m.name);
      print_metric(&first, m.name,
                   it == result.layers.end() ? 0.0 : it->second, m.unit);
    }
  } else {
    for (const auto& [name, metric] : result.end_to_end) {
      print_metric(&first, name.c_str(), metric.value, metric.unit.c_str());
    }
  }
  std::printf("}}\n");
  return 0;
}
