#pragma once
/// \file bench_common.h
/// Shared helpers for the figure-regeneration benches. Every bench binary
/// is a plain program that reproduces one table/figure of the paper's
/// evaluation section: it parses its flag table (parse_bench_args), runs
/// the full simulation, prints the figure's rows/series as an ASCII table
/// and dumps a CSV (<bench>.csv) for external plotting.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
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

/// Exits 2 with \p error's message: the harnesses map every command-line
/// error to an input error.
[[noreturn]] inline void reject(const CliError& error) {
  std::fprintf(stderr, "error: %s\n", error.message.c_str());
  std::exit(2);
}

/// The H.264 frame count of the evaluation workload: 16, or
/// MRTS_BENCH_FRAMES (smaller = faster smoke run). A malformed, zero or
/// out-of-range value exits 2.
inline unsigned bench_frames() {
  unsigned frames = 16;
  const char* env = std::getenv("MRTS_BENCH_FRAMES");
  CliArgs check;
  if (env != nullptr &&
      !check.read_token("MRTS_BENCH_FRAMES", env, 1, ~0u, &frames)) {
    reject(check.error);
  }
  return frames;
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

/// Parses a figure harness's command line against its flag table, which
/// holds \p flags: the flags this harness acts on, out of `--jobs`,
/// `--no-bb-cache`, `--fault-rate`, `--fault-seed`, `--max-retries` and
/// `--trace-dir` (default: a plain sweep's `--jobs` and `--no-bb-cache`).
/// CliSpec::parse walks the table (`--flag V` or `--flag=V`). `--help`
/// prints the table and exits 0; any other command-line error, such as an
/// argument outside the table or a malformed, missing or out-of-range
/// value, exits 2 naming it before any work starts. MRTS_BENCH_JOBS
/// supplies the `--jobs` default where the harness takes `--jobs` and is
/// held to the same contract, as is MRTS_BENCH_FRAMES.
inline BenchOptions parse_bench_args(
    int argc, char** argv, const char* summary,
    std::initializer_list<std::string_view> flags = {"--jobs",
                                                     "--no-bb-cache"}) {
  static const std::vector<CliFlag> known = {
      {"--jobs", "<n>",
       "sweep workers: 0 = one per hardware thread, 1 = serial (default "
       "MRTS_BENCH_JOBS, else 0)"},
      {"--no-bb-cache", "",
       "run the plain interpreter and per-event oracle (same output)"},
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
  for (const CliFlag& f : known) {
    for (const std::string_view name : flags) {
      if (f.name == name) verb.flags.push_back(f);
    }
  }

  CliArgs args = CliSpec::parse(verb, argc, argv, 1);
  if (args.help) {
    std::fputs(spec.help().c_str(), stdout);
    std::exit(0);
  }
  BenchOptions opts;
  const char* env_jobs = std::getenv("MRTS_BENCH_JOBS");
  const bool ok =
      args.ok() &&
      (env_jobs == nullptr || !CliSpec::flag(verb, "--jobs") ||
       args.read_token("MRTS_BENCH_JOBS", env_jobs, 0, ~0u, &opts.jobs)) &&
      args.read("--jobs", 0, ~0u, &opts.jobs) &&
      args.read_probability("--fault-rate", &opts.fault.rate) &&
      args.read("--fault-seed", 0, ~std::uint64_t{0}, &opts.fault.seed) &&
      args.read("--max-retries", 0, 1000, &opts.fault.max_retries) &&
      args.read_text("--trace-dir", &opts.trace_dir);
  if (!ok) reject(args.error);
  (void)bench_frames();  // a bad MRTS_BENCH_FRAMES fails before any work
  // A/B switch for the simulator fast paths (decoded basic-block caches +
  // batched frame execution). Output bytes are identical.
  if (args.has("--no-bb-cache")) set_fastpath_enabled(false);
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
