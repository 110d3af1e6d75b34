#pragma once
/// \file bench_common.h
/// Shared helpers for the figure-regeneration benches. Every bench binary
/// reproduces one table/figure of the paper's evaluation section: it runs
/// the full simulation, prints the figure's rows/series as an ASCII table
/// and dumps a CSV (<bench>.csv) for external plotting.

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>

#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "baselines/risc_only_rts.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/sweep_runner.h"
#include "util/counters.h"
#include "util/csv.h"
#include "util/fastpath.h"
#include "util/table.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts::bench {

/// Evaluation workload of Section 5: the H.264 encoder model at CIF size.
/// MRTS_BENCH_FRAMES overrides the frame count (smaller = faster smoke run).
inline H264AppParams eval_params() {
  H264AppParams params;
  params.frames = 16;
  params.macroblocks = 396;
  if (const char* env = std::getenv("MRTS_BENCH_FRAMES")) {
    const int frames = std::atoi(env);
    if (frames > 0) params.frames = static_cast<unsigned>(frames);
  }
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

}  // namespace detail

/// Parses and strips a `--jobs N` / `--jobs=N` flag from the command line.
/// Must run *before* benchmark::Initialize (google-benchmark rejects flags
/// it does not know). Returns the sweep worker count: 0 means "one worker
/// per hardware thread" (SweepRunner resolves it); `--jobs 1` is the exact
/// legacy serial path. The MRTS_BENCH_JOBS environment variable supplies
/// the default when the flag is absent. A malformed, negative or
/// out-of-range count (or a `--jobs` without a value) exits with code 2
/// before any worker starts.
inline unsigned parse_jobs(int* argc, char** argv) {
  const auto parse = [](const char* flag, const char* value) {
    std::uint64_t v = 0;
    if (!detail::parse_u64_token(value, &v) ||
        v > std::numeric_limits<unsigned>::max()) {
      detail::flag_error(flag, value,
                         "a worker count, 0 = one per hardware thread");
    }
    return static_cast<unsigned>(v);
  };
  unsigned jobs = 0;
  if (const char* env = std::getenv("MRTS_BENCH_JOBS")) {
    jobs = parse("MRTS_BENCH_JOBS", env);
  }
  int out = 1;  // argv[0] always kept
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0) {
      jobs = parse("--jobs", i + 1 < *argc ? argv[++i] : "");
      continue;
    }
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      jobs = parse("--jobs", arg + 7);
      continue;
    }
    if (std::strcmp(arg, "--no-bb-cache") == 0) {
      // A/B switch for the simulator fast paths (decoded basic-block
      // caches + batched frame execution): force the plain interpreter /
      // per-event oracle. Output bytes must be identical either way.
      set_fastpath_enabled(false);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return jobs;
}

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

/// Parses and strips `--fault-rate P`, `--fault-seed N` and
/// `--max-retries N` flags (each also accepts the `--flag=value` form).
/// Must run before benchmark::Initialize, like parse_jobs. Invalid values
/// terminate with exit code 2 (documented input-error contract — the sweep
/// must not run with a silently clamped fault configuration).
/// MRTS_BENCH_FAULT_RATE / _FAULT_SEED / _MAX_RETRIES env variables supply
/// defaults when the flags are absent and follow the same strict contract.
inline FaultFlags parse_fault_flags(int* argc, char** argv) {
  FaultFlags flags;
  if (const char* env = std::getenv("MRTS_BENCH_FAULT_RATE")) {
    if (!detail::parse_probability_token(env, &flags.rate)) {
      detail::flag_error("MRTS_BENCH_FAULT_RATE", env,
                         "a probability in [0,1]");
    }
  }
  if (const char* env = std::getenv("MRTS_BENCH_FAULT_SEED")) {
    if (!detail::parse_u64_token(env, &flags.seed)) {
      detail::flag_error("MRTS_BENCH_FAULT_SEED", env,
                         "an unsigned 64-bit integer");
    }
  }
  if (const char* env = std::getenv("MRTS_BENCH_MAX_RETRIES")) {
    std::uint64_t v = 0;
    if (!detail::parse_u64_token(env, &v) || v > 1000) {
      detail::flag_error("MRTS_BENCH_MAX_RETRIES", env,
                         "an integer in [0,1000]");
    }
    flags.max_retries = static_cast<unsigned>(v);
  }
  int out = 1;  // argv[0] always kept
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    auto match = [&](const char* name) {
      const std::size_t len = std::strlen(name);
      if (std::strcmp(arg, name) == 0 && i + 1 < *argc) {
        value = argv[++i];
        return true;
      }
      if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        value = arg + len + 1;
        return true;
      }
      return false;
    };
    if (match("--fault-rate")) {
      if (!detail::parse_probability_token(value, &flags.rate)) {
        detail::flag_error("--fault-rate", value,
                           "a probability in [0,1]");
      }
      continue;
    }
    if (match("--fault-seed")) {
      if (!detail::parse_u64_token(value, &flags.seed)) {
        detail::flag_error("--fault-seed", value,
                           "an unsigned 64-bit integer");
      }
      continue;
    }
    if (match("--max-retries")) {
      std::uint64_t v = 0;
      if (!detail::parse_u64_token(value, &v) || v > 1000) {
        detail::flag_error("--max-retries", value,
                           "an integer in [0,1000]");
      }
      flags.max_retries = static_cast<unsigned>(v);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return flags;
}

/// Parses and strips a `--trace-dir DIR` / `--trace-dir=DIR` flag (must run
/// before benchmark::Initialize, like parse_jobs). When set, the bench
/// writes one Chrome trace per mRTS sweep point into DIR. Empty string =
/// tracing off (the default; traced runs pay the recording overhead, so the
/// timing figures should normally run untraced). MRTS_BENCH_TRACE_DIR
/// supplies the default when the flag is absent.
inline std::string parse_trace_dir(int* argc, char** argv) {
  std::string dir;
  if (const char* env = std::getenv("MRTS_BENCH_TRACE_DIR")) dir = env;
  int out = 1;  // argv[0] always kept
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--trace-dir") == 0 && i + 1 < *argc) {
      dir = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--trace-dir=", 12) == 0) {
      dir = arg + 12;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return dir;
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
