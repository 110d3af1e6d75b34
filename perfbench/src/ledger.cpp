#include "ledger.h"

#include <fstream>

namespace perfbench {

Ledger::Ledger(Clock::time_point epoch, std::uint32_t thread,
               std::size_t max_records)
    : epoch_(epoch), thread_(thread), max_records_(max_records) {}

void Ledger::begin(const char* name, std::uint64_t job) {
  const Clock::time_point now = Clock::now();
  std::int64_t record = -1;
  if (records_.size() < max_records_) {
    SpanRecord r;
    r.name = name;
    r.start_s = seconds_between(epoch_, now);
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    r.job = job;
    r.thread = thread_;
    record = static_cast<std::int64_t>(records_.size());
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, now, 0.0, record});
}

void Ledger::end() {
  const Clock::time_point now = Clock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const double duration = seconds_between(open.start, now);
  SpanTotals& t = by_name_[open.name];
  t.total_s += duration;
  t.self_s += duration - open.child_s;
  ++t.calls;
  if (!stack_.empty()) stack_.back().child_s += duration;
  if (open.record >= 0) {
    records_[static_cast<std::size_t>(open.record)].end_s =
        seconds_between(epoch_, now);
  }
}

std::map<std::string, SpanTotals> Ledger::totals() const {
  std::map<std::string, SpanTotals> out;
  for (const auto& [name, t] : by_name_) {
    SpanTotals& o = out[name];
    o.total_s += t.total_s;
    o.self_s += t.self_s;
    o.calls += t.calls;
  }
  return out;
}

void Ledger::merge(const Ledger& other) {
  for (const auto& [name, t] : other.by_name_) {
    SpanTotals& o = by_name_[name];
    o.total_s += t.total_s;
    o.self_s += t.self_s;
    o.calls += t.calls;
  }
  const auto base = static_cast<std::int64_t>(records_.size());
  for (SpanRecord r : other.records_) {
    if (r.parent >= 0) r.parent += base;
    records_.push_back(r);
  }
  dropped_ += other.dropped_;
}

namespace {

void write_json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
  os << '"';
}

}  // namespace

bool Ledger::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os.precision(3);
  os << std::fixed;
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":";
    write_json_string(os, r.name);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
       << ",\"ts\":" << r.start_s * 1e6
       << ",\"dur\":" << (r.end_s - r.start_s) * 1e6
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
       << ",\"job\":" << r.job << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
