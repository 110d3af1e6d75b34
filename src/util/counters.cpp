#include "util/counters.h"

#include <algorithm>
#include <cmath>

#include "util/snapshot_io.h"

namespace mrts {

std::size_t Histogram::bucket_of(double value) {
  if (!(value >= 1.0)) return 0;  // < 1, non-positive and NaN
  const int exponent = std::ilogb(value);  // floor(log2(value)) for v >= 1
  const std::size_t bucket = static_cast<std::size_t>(exponent) + 1;
  return std::min(bucket, kBuckets - 1);
}

void Histogram::observe(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket_of(value)];
}

void Histogram::observe(double value, std::uint64_t times) {
  // Why the O(1) branch is bit-identical to `times` sequential observe()
  // calls: min/max are idempotent under repeating one value and count and
  // buckets are integers, so only the double sum can differ. Take value v
  // and sum s both non-negative integers, and P = times * v exactly.
  // Rounding is monotone and every integer up to 2^53 is a double, so
  // s + P >= 2^53 would make the computed `total` >= 2^53; hence
  // total < 2^53 proves s + P < 2^53. Every partial sum s + j * v
  // (j <= times) is then an integer below 2^53, exactly representable, and
  // each sequential addition — whose exact result is representable —
  // rounds to that result: the loop ends at exactly s + P == total (signed
  // zeros included: total is computed by the same double additions).
  // Anything else — a negative, non-integral, NaN or infinite value or
  // sum, or a total reaching 2^53 — takes the loop.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (times == 0) return;
  const double total = sum_ + static_cast<double>(times) * value;
  // total < 2^53 also bounds 0 <= value, sum_ < 2^53, so the integer
  // round trips below are defined.
  if (value >= 0.0 && sum_ >= 0.0 && total < kExact &&
      static_cast<double>(static_cast<std::uint64_t>(value)) == value &&
      static_cast<double>(static_cast<std::uint64_t>(sum_)) == sum_) {
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    count_ += times;
    sum_ = total;
    buckets_[bucket_of(value)] += times;
    return;
  }
  for (; times > 0; --times) observe(value);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double n = static_cast<double>(buckets_[i]);
    if (n == 0.0) continue;
    if (target <= cumulative + n) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      const double fraction = std::max(0.0, (target - cumulative) / n);
      const double value = lo + (hi - lo) * fraction;
      return std::clamp(value, min_, max_);
    }
    cumulative += n;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void CounterRegistry::add(std::string_view name, std::uint64_t delta) {
  counter_slot(name) += delta;
}

void CounterRegistry::observe(std::string_view name, double value) {
  histogram_slot(name).observe(value);
}

std::uint64_t& CounterRegistry::counter_slot(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), 0).first;
  return it->second;
}

Histogram& CounterRegistry::histogram_slot(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

std::uint64_t CounterRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

const Histogram* CounterRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void CounterRegistry::clear() {
  counters_.clear();
  histograms_.clear();
}

void Histogram::save_state(SnapshotWriter& w) const {
  w.u64(count_);
  w.f64(sum_);
  w.f64(min_);
  w.f64(max_);
  for (std::uint64_t b : buckets_) w.u64(b);
}

void Histogram::load_state(SnapshotReader& r) {
  count_ = r.u64();
  sum_ = r.f64();
  min_ = r.f64();
  max_ = r.f64();
  for (auto& b : buckets_) b = r.u64();
}

void CounterRegistry::save_state(SnapshotWriter& w) const {
  w.u64(counters_.size());
  for (const auto& [name, value] : counters_) {
    w.str(name);
    w.u64(value);
  }
  w.u64(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    w.str(name);
    histogram.save_state(w);
  }
}

void CounterRegistry::load_state(SnapshotReader& r) {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, Histogram, std::less<>> histograms;
  const std::size_t num_counters = r.length(1u << 20, "counter table");
  for (std::size_t i = 0; i < num_counters; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    counters.emplace(std::move(name), value);
  }
  const std::size_t num_histograms = r.length(1u << 20, "histogram table");
  for (std::size_t i = 0; i < num_histograms; ++i) {
    std::string name = r.str();
    Histogram h;
    h.load_state(r);
    histograms.emplace(std::move(name), h);
  }
  counters_ = std::move(counters);
  histograms_ = std::move(histograms);
}

void CounterRegistry::merge(const CounterRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    add(name, value);
  }
  for (const auto& [name, histogram] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, histogram);
    } else {
      it->second.merge(histogram);
    }
  }
}

}  // namespace mrts
