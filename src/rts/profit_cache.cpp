#include "rts/profit_cache.h"

#include <cstring>

#include "util/counters.h"
#include "util/trace.h"

namespace mrts {

std::size_t ProfitCache::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the key fields. The key is pure value state, so hashing the
  // members directly (no padding bytes) is both portable and fast.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.epoch);
  mix(k.now);
  mix(k.fg_cursor);
  mix(k.cg_cursor);
  mix(k.uniform_reconfig);
  mix(k.claims);
  mix(k.e_bits);
  mix(k.tf);
  mix(k.tb);
  mix((std::uint64_t{k.ise} << 8) | k.model_bits);
  return static_cast<std::size_t>(h);
}

bool ProfitCache::make_key(Key& key, IseId ise, const IseVariant& variant,
                          const TriggerEntry& entry,
                          const ReconfigPlanner& planner,
                          const ProfitModel& model) {
  // Claim signature: one byte per *distinct* data path of the ISE, in order
  // of first occurrence (a fixed order per ISE, so equal planner states
  // always produce equal signatures). plan() consults exactly these counts,
  // nothing else, of the claim multiset.
  const auto& dps = variant.data_paths;
  std::uint64_t claims = 0;
  unsigned distinct = 0;
  for (std::size_t i = 0; i < dps.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (dps[j] == dps[i]) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const unsigned count = planner.claimed_count(dps[i]);
    if (distinct == 8 || count > 0xff) return false;
    claims |= std::uint64_t{count} << (8 * distinct);
    ++distinct;
  }

  key.epoch = planner.fabric_epoch();
  key.now = planner.now();
  key.fg_cursor = planner.fg_cursor();
  key.cg_cursor = planner.cg_cursor();
  key.uniform_reconfig = planner.uniform_reconfig_cycles();
  key.claims = claims;
  static_assert(sizeof(key.e_bits) == sizeof(entry.expected_executions));
  std::memcpy(&key.e_bits, &entry.expected_executions, sizeof(key.e_bits));
  key.tf = entry.time_to_first;
  key.tb = entry.time_between;
  key.ise = raw(ise);
  key.model_bits = (model.account_risc_window ? 1u : 0u) |
                   (model.include_tb ? 2u : 0u);
  return true;
}

void ProfitCache::begin_select() {
  map_.clear();
  select_hits_ = 0;
  select_misses_ = 0;
}

const double* ProfitCache::lookup(const Key& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++select_misses_;
    return nullptr;
  }
  ++select_hits_;
  return &it->second;
}

void ProfitCache::flush(CounterRegistry* counters, TraceRecorder* trace,
                        Cycles now) {
  if (select_hits_ + select_misses_ != 0) {
    if (counters != nullptr) {
      counters->add("selector.cache.hit", select_hits_);
      counters->add("selector.cache.miss", select_misses_);
    }
    if (trace != nullptr) {
      trace->record({TraceEventKind::kSelectorCacheStats, kTrackSelector, now,
                     0, 0, 0, static_cast<double>(select_hits_),
                     static_cast<double>(select_misses_)});
    }
  }
  select_hits_ = 0;
  select_misses_ = 0;
}

}  // namespace mrts
