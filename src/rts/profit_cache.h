#pragma once
/// \file profit_cache.h
/// Memoized Eq. 1-4 profit evaluations for the ISE-selection hot path.
///
/// Both selectors re-evaluate the same (ISE, forecast, fabric-state) points
/// many times per trigger: the branch-and-bound's root upper bounds are
/// recomputed along every all-"no ISE" DFS prefix, sibling subtrees collide
/// on identical port cursors and claim counts, and the greedy re-scores
/// untouched candidates after rounds that only reused instances. A profit
/// value is a pure function of
///
///   (ISE, ProfitModel, e/tf/tb forecast, plan() output)
///
/// and plan()'s output is itself a pure function of the planner state the
/// key captures below — so a cache hit returns the *bit-identical* double a
/// recomputation would produce. That exactness is the whole contract: a
/// selector with the cache attached makes every selection, every counter and
/// every committed fig CSV byte-identical to the same selector without one
/// (attach_profit_cache(nullptr); pinned by tests/test_profit_cache.cpp).
///
/// The cache is per-MRts-instance (one fabric, one library), never shared
/// across threads — the same ownership rule as every other mutable
/// simulation object. Entries are cleared at the start of each select()
/// call: keys embed the trigger cycle, so cross-trigger hits are impossible
/// anyway, and clearing makes memory use per select bounded and
/// deterministic.

#include <cstdint>
#include <unordered_map>

#include "isa/ise.h"
#include "isa/trigger.h"
#include "rts/profit.h"
#include "rts/reconfig_plan.h"
#include "util/types.h"

namespace mrts {

class CounterRegistry;
class TraceRecorder;

class ProfitCache {
 public:
  /// Everything the profit double depends on, captured exactly (bit
  /// patterns, not rounded buckets — a lossy key would change selections).
  struct Key {
    std::uint64_t epoch = 0;   ///< FabricManager::state_epoch / kIdleEpoch
    Cycles now = 0;            ///< trigger cycle (ready_rel is relative)
    Cycles fg_cursor = 0;      ///< FG reconfiguration-port backlog
    Cycles cg_cursor = 0;
    Cycles uniform_reconfig = 0;
    std::uint64_t claims = 0;  ///< packed per-data-path claim counts
    std::uint64_t e_bits = 0;  ///< bit pattern of expected_executions
    Cycles tf = 0;
    Cycles tb = 0;
    std::uint32_t ise = 0;
    std::uint8_t model_bits = 0;  ///< ProfitModel flags
    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  /// Builds the key for evaluating \p ise under \p entry on \p planner.
  /// Returns false when the point is not cacheable (more than 8 distinct
  /// data paths or a claim count above 255 — neither occurs in the paper's
  /// libraries; the caller then just computes).
  static bool make_key(Key& key, IseId ise, const IseVariant& variant,
                       const TriggerEntry& entry,
                       const ReconfigPlanner& planner,
                       const ProfitModel& model);

  /// Starts a select() scope: drops all entries (bucket storage is kept) and
  /// zeroes the per-select hit/miss tallies.
  void begin_select();

  /// Cached profit for \p key, or nullptr. Tallies one hit or one miss.
  const double* lookup(const Key& key);

  /// Tallies a miss for an evaluation the cache could not serve because
  /// make_key declined the point.
  void note_uncacheable() { ++select_misses_; }

  void insert(const Key& key, double profit) { map_.emplace(key, profit); }

  /// Per-select tallies (since begin_select).
  std::uint64_t select_hits() const { return select_hits_; }
  std::uint64_t select_misses() const { return select_misses_; }

  /// Ends a select() scope: publishes the per-select tallies as
  /// selector.cache.{hit,miss} counter deltas and one kSelectorCacheStats
  /// trace event (either sink may be null), then zeroes them. Flushing once
  /// per select — not once per evaluation — keeps the registry's map lookup
  /// out of the hot loop.
  void flush(CounterRegistry* counters, TraceRecorder* trace, Cycles now);

 private:
  std::unordered_map<Key, double, KeyHash> map_;
  std::uint64_t select_hits_ = 0;
  std::uint64_t select_misses_ = 0;
};

/// Scratch buffers for the allocation-free candidate evaluation; create one
/// per select() call and pass it through the inner loop.
struct EvalScratch {
  std::vector<Cycles> ready_abs;
  ProfitInputs inputs;
};

}  // namespace mrts
