#pragma once
/// \file report.h
/// What every workload of the benchmark shares: the options it runs under,
/// the result it returns (operations attempted/failed, end-to-end and
/// per-layer metrics), and the small statistics and host helpers.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Checkout root: holds tests/golden/ (the committed reference outputs).
  std::string root = ".";
  /// Scratch directory inside the checkout (span files, sockets, job logs).
  std::string out_dir = ".bench_build/perfbench-out";
  /// The mrts_serve binary built next to the driver.
  std::string serve_bin;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every failed operation by name (printed on stderr, one per line).
  std::vector<std::string> failures;
  std::map<std::string, Metric> end_to_end;
  /// Per-layer values by metric name; layers a workload does not touch stay
  /// absent and print as 0.
  std::map<std::string, double> layers;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = Metric{value, unit};
  }
};

/// The per-layer metric catalogue (name, unit), identical for every
/// workload so the traced runs always print the full set.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Nearest-rank percentile of \p samples (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// Peak resident set of this process so far, in MB (getrusage).
double self_peak_rss_mb();

/// Adds `metric = self seconds of span / per` for each (metric, span) pair.
struct SpanMetric {
  const char* metric;
  const char* span;
};
void add_span_seconds(Result& result,
                      const std::map<std::string, SpanTotals>& totals,
                      double per, std::initializer_list<SpanMetric> pairs);

/// Ledger self-check over a traced phase span: the self times of the spans
/// inside \p phase must cover all but \p tolerance of its wall. Reports
/// ledger.unattributed_pct and fails the run when the tolerance is missed.
inline constexpr double kLedgerTolerance = 0.05;
void ledger_self_check(Result& result,
                       const std::map<std::string, SpanTotals>& totals,
                       const char* phase);

/// setup_s is the median of kSetupBefore set-ups at the start of a run and
/// kSetupAfter more after its measured phase: the host's slow spells last
/// seconds, so set-ups spread over the run read steadier than a burst.
inline constexpr int kSetupBefore = 5;
inline constexpr int kSetupAfter = 4;

/// Root span of a measured phase in the traced runs.
inline constexpr const char* kMeasurePhase = "phase.measure";

struct PhaseStats {
  std::uint64_t passes = 0;
  double wall_s = 0.0;
};

/// Runs whole passes of \p pass (called with \p ledger) until \p seconds
/// have elapsed, at least one; traced passes sit inside a kMeasurePhase span.
template <typename Pass>
PhaseStats run_passes(double seconds, Ledger* ledger, Pass&& pass) {
  PhaseStats stats;
  const Clock::time_point start = Clock::now();
  {
    Span phase(ledger, kMeasurePhase);
    do {
      pass(ledger);
      ++stats.passes;
    } while (seconds_between(start, Clock::now()) < seconds);
  }
  stats.wall_s = seconds_between(start, Clock::now());
  return stats;
}

/// The measured phase of a batch workload. Untraced runs make one phase of
/// options.seconds. Traced runs make an untraced half and then a traced half
/// of the same passes: ledger.overhead_pct is the traced half's wall per
/// pass over the untraced half's (the benchmark's own tracing cost), and
/// the ledger self-check runs over the traced half.
template <typename Pass>
PhaseStats measure(const Options& options, Result& result, Ledger& ledger,
                   Pass&& pass) {
  if (!options.trace) return run_passes(options.seconds, nullptr, pass);
  const PhaseStats plain = run_passes(options.seconds / 2, nullptr, pass);
  const PhaseStats traced = run_passes(options.seconds / 2, &ledger, pass);
  const double plain_per_pass = plain.wall_s / static_cast<double>(plain.passes);
  const double traced_per_pass =
      traced.wall_s / static_cast<double>(traced.passes);
  result.layers["ledger.overhead_pct"] =
      100.0 * (traced_per_pass / plain_per_pass - 1.0);
  ledger_self_check(result, ledger.totals(), kMeasurePhase);
  return traced;
}

/// Best-of-N host time per operation of a batch workload. Every pass runs
/// the same operations in the same order; an operation's time is its
/// fastest repetition in the run. Other tenants of a shared host slow this
/// simulator by up to 2x for seconds at a time, so the fastest repetition
/// repeats from run to run where a mean over the run carries those spells.
class BestOf {
 public:
  /// Operation \p op of the current pass took \p seconds and simulated
  /// \p kexec kernel executions.
  void record(std::size_t op, double seconds, std::uint64_t kexec);

  /// End-to-end batch metrics: kexec_per_s (simulated executions of one
  /// pass over the summed best times) and req_p50_ms / req_p90_ms (over
  /// the operations' best times).
  void report(Result& result) const;

 private:
  std::vector<double> best_s_;
  std::vector<std::uint64_t> kexec_;  ///< of the fastest repetition
};

/// Whole-file read; false when the file cannot be opened.
bool read_file(const std::string& path, std::string* out);

/// Splits a CSV line on commas (the goldens hold no quoted fields).
std::vector<std::string> split_csv(const std::string& line);

/// Writes the traced run's spans to <out_dir>/<workload>-seed<seed>.trace.json.
void write_span_file(const Options& options, const Ledger& ledger);

/// Build provenance (build type and compiler of this binary).
const char* build_type();
const char* compiler();

Result run_h264_sweep(const Options& options);
Result run_h264_flight_recorder(const Options& options);
Result run_cmp_scaleout(const Options& options);
Result run_serve_open_loop(const Options& options);

}  // namespace perfbench
