#pragma once
/// \file bench_common.h
/// Shared helpers for the figure-regeneration benches. Every bench binary
/// is a plain program that reproduces one table/figure of the paper's
/// evaluation section: it parses its flag table (parse_bench_args), runs
/// the full simulation, prints the figure's rows/series as an ASCII table
/// and dumps a CSV (<bench>.csv) for external plotting.

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "baselines/risc_only_rts.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/sweep_runner.h"
#include "util/cli_spec.h"
#include "util/counters.h"
#include "util/csv.h"
#include "util/fastpath.h"
#include "util/table.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts::bench {

namespace detail {

/// Strict full-token parsers, mirroring the mrts_cli contract: malformed
/// values (negative/NaN rates, signed or overflowing seeds and job counts)
/// are input errors — exit code 2, never silently clamped.
inline bool parse_probability_token(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;  // NaN fails every comparison
  *out = v;
  return true;
}

inline bool parse_u64_token(const char* s, std::uint64_t* out) {
  if (s[0] == '\0' || s[0] == '-' || s[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

[[noreturn]] inline void flag_error(const char* flag, const char* value,
                                    const char* expected) {
  std::fprintf(stderr, "error: invalid %s '%s' (expected %s)\n", flag, value,
               expected);
  std::exit(2);
}

/// Parses an unsigned count in [min, max]; anything else exits 2 naming
/// \p flag.
inline unsigned parse_count(const char* flag, const char* value,
                            unsigned min, unsigned max,
                            const char* expected) {
  std::uint64_t v = 0;
  if (!parse_u64_token(value, &v) || v < min || v > max) {
    flag_error(flag, value, expected);
  }
  return static_cast<unsigned>(v);
}

constexpr unsigned kMaxCount = std::numeric_limits<unsigned>::max();

}  // namespace detail

/// The H.264 frame count of the evaluation workload: 16, or
/// MRTS_BENCH_FRAMES (smaller = faster smoke run). A malformed, zero or
/// out-of-range value exits 2.
inline unsigned bench_frames() {
  const char* env = std::getenv("MRTS_BENCH_FRAMES");
  if (env == nullptr) return 16;
  return detail::parse_count("MRTS_BENCH_FRAMES", env, 1, detail::kMaxCount,
                             "a frame count >= 1");
}

/// Evaluation workload of Section 5: the H.264 encoder model at CIF size.
inline H264AppParams eval_params() {
  H264AppParams params;
  params.frames = bench_frames();
  params.macroblocks = 396;
  return params;
}

struct EvalContext {
  H264Application app;
  std::vector<BlockProfile> profile;
  Cycles risc_cycles = 0;

  explicit EvalContext(const H264AppParams& params = eval_params())
      : app(build_h264_application(params)),
        profile(profile_application(app.trace, app.library)) {
    RiscOnlyRts risc(app.library);
    risc_cycles = run_application(risc, app.trace).total_cycles;
  }

  /// \p recorder / \p counters (optional) attach a flight recorder to the
  /// freshly built MRts. Both must be per sweep point — never pass the same
  /// instances to concurrently running points.
  AppRunResult run_mrts(unsigned cg, unsigned prcs, MRtsConfig config = {},
                        TraceRecorder* recorder = nullptr,
                        CounterRegistry* counters = nullptr) const {
    // One single-core private-fabric machine per sweep point: the Machine
    // performs exactly the legacy `MRts(lib, cg, prcs, config)` construction
    // and the attach-before-run ordering (sim/machine.h).
    MachineConfig mc;
    mc.prcs = prcs;
    mc.cg_fabrics = cg;
    Machine machine(app.library, mc);
    RuntimeSystem& base = machine.add_rts(config);
    if (recorder != nullptr || counters != nullptr) {
      machine.attach_observability(recorder, counters);
    }
    return run_application(base, app.trace, recorder);
  }

  AppRunResult run_rispp(unsigned cg, unsigned prcs) const {
    RisppRts rts(app.library, cg, prcs);
    return run_application(rts, app.trace);
  }

  AppRunResult run_morpheus(unsigned cg, unsigned prcs) const {
    Morpheus4sRts rts(app.library, cg, prcs, profile);
    return run_application(rts, app.trace);
  }

  AppRunResult run_offline_optimal(unsigned cg, unsigned prcs) const {
    OfflineOptimalRts rts(app.library, cg, prcs, profile);
    return run_application(rts, app.trace);
  }
};

/// Fault-injection knobs shared by the benches (arch/fault_model.h). The
/// defaults are fault-free so the committed figure CSVs stay byte-identical
/// unless a fault rate is explicitly requested.
struct FaultFlags {
  double rate = 0.0;
  std::uint64_t seed = 42;
  unsigned max_retries = 3;

  /// The FaultModelConfig this flag set denotes (all-zero when rate == 0).
  FaultModelConfig config() const {
    if (rate <= 0.0) return FaultModelConfig{};
    return FaultModelConfig::uniform(rate, seed, max_retries);
  }
};

/// What a harness's command line asked for (parse_bench_args).
struct BenchOptions {
  unsigned jobs = 0;      ///< sweep workers; 0 = one per hardware thread
  FaultFlags fault;       ///< fault-free unless --fault-rate is given
  std::string trace_dir;  ///< empty = tracing off
};

/// Parses a figure harness's command line against its flag table: `--jobs`
/// and `--no-bb-cache` (every harness) plus \p extra_flags, the optional
/// flags this harness acts on (`--fault-rate`, `--fault-seed`,
/// `--max-retries`, `--trace-dir`). Value flags take `--flag V` or
/// `--flag=V`. `--help` prints the table and exits 0; an argument outside
/// the table, or a malformed, missing or out-of-range value, exits 2 naming
/// it before any work starts. MRTS_BENCH_JOBS supplies the `--jobs` default
/// and is held to the same contract, as is MRTS_BENCH_FRAMES.
inline BenchOptions parse_bench_args(
    int argc, char** argv, const char* summary,
    std::initializer_list<std::string_view> extra_flags = {}) {
  static const std::vector<CliFlag> optional = {
      {"--fault-rate", "<p>",
       "uniform fault probability in [0,1] (default 0 = fault-free)"},
      {"--fault-seed", "<n>", "fault injector seed (default 42)"},
      {"--max-retries", "<n>", "retries per failed load, 0..1000 (default 3)"},
      {"--trace-dir", "<dir>",
       "write one Chrome trace per mRTS run into <dir>"},
  };
  const char* binary = argc > 0 ? argv[0] : "bench";
  CliSpec spec(std::filesystem::path(binary).filename().string(), summary,
               "exit codes: 0 success, 2 input error");
  CliVerb& verb = spec.add_verb("", "", "");
  verb.flags = {
      {"--jobs", "<n>",
       "sweep workers: 0 = one per hardware thread, 1 = serial (default "
       "MRTS_BENCH_JOBS, else 0)"},
      {"--no-bb-cache", "",
       "run the plain interpreter and per-event oracle (same output)"},
  };
  for (const std::string_view name : extra_flags) {
    for (const CliFlag& f : optional) {
      if (f.name == name) verb.flags.push_back(f);
    }
  }

  const char* jobs_expected = "a worker count, 0 = one per hardware thread";
  BenchOptions opts;
  if (const char* env = std::getenv("MRTS_BENCH_JOBS")) {
    opts.jobs = detail::parse_count("MRTS_BENCH_JOBS", env, 0,
                                    detail::kMaxCount, jobs_expected);
  }
  (void)bench_frames();  // a bad MRTS_BENCH_FRAMES fails before any work
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      std::fputs(spec.help().c_str(), stdout);
      std::exit(0);
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const CliFlag* flag = CliSpec::flag(verb, name);
    if (flag == nullptr || (flag->value.empty() && eq != arg.npos)) {
      std::fprintf(stderr, "error: unknown argument '%s' (see --help)\n",
                   argv[i]);
      std::exit(2);
    }
    // A trailing value flag gets "" and fails its parser below.
    const char* value = "";
    if (eq != arg.npos) {
      value = argv[i] + eq + 1;
    } else if (!flag->value.empty() && i + 1 < argc) {
      value = argv[++i];
    }
    if (name == "--jobs") {
      opts.jobs = detail::parse_count("--jobs", value, 0, detail::kMaxCount,
                                      jobs_expected);
    } else if (name == "--no-bb-cache") {
      // A/B switch for the simulator fast paths (decoded basic-block
      // caches + batched frame execution). Output bytes are identical.
      set_fastpath_enabled(false);
    } else if (name == "--fault-rate") {
      if (!detail::parse_probability_token(value, &opts.fault.rate)) {
        detail::flag_error("--fault-rate", value, "a probability in [0,1]");
      }
    } else if (name == "--fault-seed") {
      if (!detail::parse_u64_token(value, &opts.fault.seed)) {
        detail::flag_error("--fault-seed", value,
                           "an unsigned 64-bit integer");
      }
    } else if (name == "--max-retries") {
      opts.fault.max_retries = detail::parse_count(
          "--max-retries", value, 0, 1000, "an integer in [0,1000]");
    } else if (name == "--trace-dir") {
      if (*value == '\0') {
        detail::flag_error("--trace-dir", value, "a directory path");
      }
      opts.trace_dir = value;
    }
  }
  return opts;
}

/// Writes one sweep point's events as Chrome trace JSON into \p dir
/// (created on demand). Concurrent sweep points may call this — each point
/// writes a distinct \p filename, so there is no shared state. Returns the
/// written path, or an empty string on failure.
inline std::string write_point_trace(const std::string& dir,
                                     const std::string& filename,
                                     const std::vector<TraceEvent>& events,
                                     const IseLibrary* lib) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (std::filesystem::path(dir) / filename).string();
  if (!write_chrome_trace_file(path, events, lib)) {
    std::fprintf(stderr, "warning: cannot write trace '%s'\n", path.c_str());
    return {};
  }
  return path;
}

/// Renders a merged counter registry (a compact per-sweep summary).
inline void print_counter_summary(const char* what,
                                  const CounterRegistry& counters) {
  if (counters.empty()) return;
  TextTable table({"counter", "value"});
  for (const auto& [name, value] : counters.counters()) {
    table.add_values(name, value);
  }
  for (const auto& [name, h] : counters.histograms()) {
    table.add_values(name + " (mean)", format_double(h.mean(), 2));
  }
  std::printf("\n%s — merged mRTS counters (submission order):\n%s", what,
              table.render().c_str());
}

/// Runs \p run_sweep (which is expected to drive a SweepRunner with \p jobs
/// workers) and prints the sweep's wall-clock and worker count, so the
/// --jobs speedup is visible in the harness output.
template <typename Fn>
void timed_sweep(const char* what, unsigned jobs, Fn&& run_sweep) {
  const SweepRunner runner(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  run_sweep(runner);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  std::printf("[sweep] %s: %u worker(s), %.3f s wall-clock\n", what,
              runner.jobs(), seconds);
}

}  // namespace mrts::bench
