#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"workload.gen_s", "s"},
      {"workload.blocks", "count"},
      {"sim.machine_s", "s"},
      {"sim.profile_s", "s"},
      {"sim.self_s", "s"},
      {"rts.trigger_s.heuristic", "s"},
      {"rts.trigger_s.optimal", "s"},
      {"rts.triggers", "count"},
      {"rts.profit_evals", "count"},
      {"rts.exec_s", "s"},
      {"rts.kexec", "count"},
      {"rts.block_end_s", "s"},
      {"baselines.trigger_s", "s"},
      {"baselines.exec_s", "s"},
      {"baselines.block_end_s", "s"},
      {"arch.fg_loads", "count"},
      {"arch.cg_loads", "count"},
      {"arch.cancelled_loads", "count"},
      {"arch.load_useful_ratio", "ratio"},
      {"cmp.port_wait_cycles", "cycles"},
      {"cmp.interconnect_cycles", "cycles"},
      {"trace.events", "count"},
      {"trace.bytes", "bytes"},
      {"trace.export_s", "s"},
      {"trace.overhead_x", "x"},
      {"obs.analyze_s", "s"},
      {"obs.report_s", "s"},
      {"snapshot.build_s", "s"},
      {"snapshot.bytes", "bytes"},
      {"serve.core_submit_s", "s"},
      {"serve.core_run_s", "s"},
      {"serve.core_status_s", "s"},
      {"serve.bounced", "count"},
      {"wire.encode_s", "s"},
      {"wire.decode_s", "s"},
      {"wire.frames", "count"},
      {"client.polls_per_job", "count"},
      {"client.poll_hit_ratio", "ratio"},
      {"client.submit_rtt_ms", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"ledger.unattributed_pct", "%"},
      {"ledger.overhead_pct", "%"},
  };
  return metrics;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void add_span_seconds(Result& result,
                      const std::map<std::string, SpanTotals>& totals,
                      double per, std::initializer_list<SpanMetric> pairs) {
  for (const SpanMetric& p : pairs) {
    const auto it = totals.find(p.span);
    const double self = it == totals.end() ? 0.0 : it->second.self_s;
    result.layers[p.metric] += per > 0.0 ? self / per : 0.0;
  }
}

void ledger_self_check(Result& result,
                       const std::map<std::string, SpanTotals>& totals,
                       const char* phase) {
  const auto it = totals.find(phase);
  if (it == totals.end() || it->second.total_s <= 0.0) {
    result.fail(std::string("ledger_self_check: no '") + phase + "' span");
    return;
  }
  const double unattributed = it->second.self_s / it->second.total_s;
  result.layers["ledger.unattributed_pct"] = 100.0 * unattributed;
  if (unattributed > kLedgerTolerance) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "ledger_self_check: %.2f%% of '%s' outside layer spans "
                  "(tolerance %.0f%%)",
                  100.0 * unattributed, phase, 100.0 * kLedgerTolerance);
    result.fail(buf);
  }
}

void BestOf::record(std::size_t op, double seconds, std::uint64_t kexec) {
  if (op >= best_s_.size()) {
    best_s_.resize(op + 1, INFINITY);
    kexec_.resize(op + 1, 0);
  }
  if (seconds < best_s_[op]) {
    best_s_[op] = seconds;
    kexec_[op] = kexec;
  }
}

void BestOf::report(Result& result) const {
  double seconds = 0.0;
  std::uint64_t kexec = 0;
  std::vector<double> best_ms;
  for (std::size_t i = 0; i < best_s_.size(); ++i) {
    seconds += best_s_[i];
    kexec += kexec_[i];
    best_ms.push_back(1e3 * best_s_[i]);
  }
  result.e2e("kexec_per_s", static_cast<double>(kexec) / seconds, "1/s");
  result.e2e("req_p50_ms", percentile(best_ms, 50), "ms");
  result.e2e("req_p90_ms", percentile(best_ms, 90), "ms");
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) out.push_back(field);
  return out;
}

void write_span_file(const Options& options, const Ledger& ledger) {
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (!ledger.write_chrome_trace(path)) {
    std::fprintf(stderr, "warning: cannot write span file '%s'\n",
                 path.c_str());
    return;
  }
  std::fprintf(stderr, "perfbench: wrote %zu spans (%llu aggregated only) to %s\n",
               ledger.records().size(),
               static_cast<unsigned long long>(ledger.dropped_records()),
               path.c_str());
}

const char* build_type() { return PERFBENCH_BUILD_TYPE; }
const char* compiler() { return PERFBENCH_COMPILER; }

}  // namespace perfbench
