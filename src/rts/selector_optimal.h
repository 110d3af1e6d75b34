#pragma once
/// \file selector_optimal.h
/// Optimal ISE selection by exhaustive enumeration with branch-and-bound
/// pruning (Section 4.1). The paper uses this algorithm only to evaluate the
/// quality of the heuristic (it is O(M^N) — more than 78 million
/// combinations for six kernels of the H.264 encoder — and therefore not
/// feasible at run time); we use it for the Fig. 9 comparison and for the
/// offline-optimal baseline.
///
/// Enumeration fixes the reconfiguration order: kernels are searched, and
/// their picks returned and installed, in descending order of their root
/// profit upper bound. Each combination is scored as the sum of the Eq. 4
/// profits of its members evaluated against the shared reconfiguration-port
/// backlog. A per-kernel "no ISE" option guarantees feasibility when the
/// fabric cannot host every kernel. The search extends one planner in place
/// (ReconfigPlanner::mark/commit_into/rollback) instead of copying it per
/// node; tests/test_profit_cache.cpp checks it against a copy-per-
/// combination enumeration.

#include <cstdint>

#include "rts/selector_heuristic.h"

namespace mrts {

class OptimalSelector {
 public:
  /// \param node_budget hard cap on explored search nodes; when exceeded the
  ///        best combination found so far is returned (never triggered at
  ///        the paper's problem sizes, it guards against pathological
  ///        libraries).
  explicit OptimalSelector(const IseLibrary& lib,
                           std::uint64_t node_budget = 200'000'000);

  SelectionResult select(const TriggerInstruction& ti,
                         ReconfigPlanner planner) const;

  /// Number of complete combinations evaluated in the last select() call.
  std::uint64_t last_combinations() const { return last_combinations_; }

  /// Attaches the flight recorder (null detaches): the final picks of each
  /// select() call are recorded (the search itself is too fine-grained).
  void attach_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Recorder + counter registry in one call (selector.cache.{hit,miss}
  /// deltas land in the registry once per select()).
  void attach_observability(TraceRecorder* trace, CounterRegistry* counters) {
    trace_ = trace;
    counters_ = counters;
  }

  /// Attaches the profit memo shared with the heuristic (null detaches).
  void attach_profit_cache(ProfitCache* cache) { cache_ = cache; }

 private:
  const IseLibrary* lib_;
  std::uint64_t node_budget_;
  mutable std::uint64_t last_combinations_ = 0;
  TraceRecorder* trace_ = nullptr;
  CounterRegistry* counters_ = nullptr;
  ProfitCache* cache_ = nullptr;
};

}  // namespace mrts
