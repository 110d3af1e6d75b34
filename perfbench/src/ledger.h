#pragma once
/// \file ledger.h
/// Host-time span ledger of the benchmark's traced runs. The benchmark wraps
/// every call it makes into a layer of the library in a Span; the ledger
/// keeps each span's name, start, end, parent and job id in memory and
/// aggregates, per span name, the total duration and the self time (the
/// duration minus the part covered by child spans). Spans are written out
/// as Chrome trace-event JSON when the run ends.
///
/// One ledger per thread: a Ledger is not thread-safe. Threads that trace
/// concurrently each own one and merge them after joining.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

struct SpanRecord {
  const char* name = nullptr;
  double start_s = 0.0;  ///< seconds since the ledger's epoch
  double end_s = 0.0;
  std::int64_t parent = -1;  ///< index into records(), -1 = root
  std::uint64_t job = 0;     ///< serve job id (0 = none)
  std::uint32_t thread = 0;
};

class Ledger {
 public:
  /// Records beyond \p max_records are aggregated but not kept, so a long
  /// run's span file stays bounded.
  explicit Ledger(Clock::time_point epoch, std::uint32_t thread = 0,
                  std::size_t max_records = 200000);

  /// \p name must be a string literal (or otherwise outlive the ledger).
  void begin(const char* name, std::uint64_t job = 0);
  void end();

  /// Aggregates by span name (sorted).
  std::map<std::string, SpanTotals> totals() const;
  const std::vector<SpanRecord>& records() const { return records_; }
  std::uint64_t dropped_records() const { return dropped_; }

  /// Folds \p other's aggregates and records into this ledger (parents are
  /// re-based). Both must be closed (no open spans).
  void merge(const Ledger& other);

  /// Chrome trace-event JSON ({"traceEvents":[...]}), one "X" event per
  /// kept span; args carry the parent index and job id.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_s;
    std::int64_t record;
  };

  Clock::time_point epoch_;
  std::uint32_t thread_;
  std::size_t max_records_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> records_;
  std::unordered_map<const char*, SpanTotals> by_name_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null ledger makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Ledger* ledger, const char* name, std::uint64_t job = 0)
      : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->begin(name, job);
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace perfbench
