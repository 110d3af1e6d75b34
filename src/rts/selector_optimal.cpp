#include "rts/selector_optimal.h"

#include <algorithm>

#include "util/trace.h"

namespace mrts {
namespace {

struct KernelOptions {
  const TriggerEntry* entry;
  std::vector<IseId> ises;  // candidate ISEs (a "none" option is implicit)
  double upper_bound = 0.0; // optimistic max profit of this kernel
};

struct SearchState {
  const IseLibrary* lib;
  const std::vector<KernelOptions>* kernels;
  std::uint64_t node_budget;
  std::uint64_t nodes = 0;
  std::uint64_t combinations = 0;
  std::uint64_t profit_evals = 0;

  double best_profit = -1.0;
  std::vector<SelectedIse> best_selection;

  /// Suffix sums of per-kernel upper bounds for pruning.
  std::vector<double> ub_suffix;

  std::vector<SelectedIse> current;
  double current_profit = 0.0;

  ProfitCache* cache = nullptr;  ///< optional profit memo
  EvalScratch* scratch = nullptr;
  /// Retired instance_ready vectors, reused (capacity intact) by the next
  /// push — the search's only per-node heap traffic would otherwise be this
  /// vector.
  std::vector<std::vector<Cycles>> spare;
};

void dfs(SearchState& st, std::size_t depth, ReconfigPlanner& planner) {
  if (st.nodes++ > st.node_budget) return;
  if (depth == st.kernels->size()) {
    ++st.combinations;
    if (st.current_profit > st.best_profit) {
      st.best_profit = st.current_profit;
      st.best_selection = st.current;
    }
    return;
  }
  // Bound: even with optimistic profits for all remaining kernels we cannot
  // beat the incumbent.
  if (st.current_profit + st.ub_suffix[depth] <= st.best_profit) return;

  const KernelOptions& opt = (*st.kernels)[depth];

  // Option "no ISE for this kernel".
  dfs(st, depth + 1, planner);

  for (IseId ise_id : opt.ises) {
    const IseVariant& v = st.lib->ise(ise_id);
    if (!planner.fits(v.fg_units, v.cg_units)) continue;
    const double profit =
        evaluate_candidate_profit(*st.lib, ise_id, *opt.entry, planner,
                                  ProfitModel{}, st.cache, *st.scratch);
    ++st.profit_evals;
    SelectedIse sel;
    sel.kernel = opt.entry->kernel;
    sel.ise = ise_id;
    sel.profit = profit;
    // Extend the shared planner in place and undo on the way out instead of
    // copying its whole state (three hash maps) per node.
    const ReconfigPlanner::Checkpoint cp = planner.mark();
    if (!st.spare.empty()) {
      sel.instance_ready = std::move(st.spare.back());
      st.spare.pop_back();
    }
    planner.commit_into(v.data_paths, sel.instance_ready);
    st.current.push_back(std::move(sel));
    st.current_profit += profit;
    dfs(st, depth + 1, planner);
    st.current_profit -= profit;
    st.spare.push_back(std::move(st.current.back().instance_ready));
    st.current.pop_back();
    planner.rollback(cp);
  }
}

}  // namespace

OptimalSelector::OptimalSelector(const IseLibrary& lib,
                                 std::uint64_t node_budget)
    : lib_(&lib), node_budget_(node_budget) {}

SelectionResult OptimalSelector::select(const TriggerInstruction& ti,
                                        ReconfigPlanner planner) const {
  if (cache_ != nullptr) cache_->begin_select();
  EvalScratch scratch;

  std::vector<KernelOptions> kernels;
  kernels.reserve(ti.entries.size());
  std::uint64_t ub_evals = 0;
  for (const auto& entry : ti.entries) {
    KernelOptions opt;
    opt.entry = &entry;
    const Kernel& k = lib_->kernel(entry.kernel);
    for (IseId ise : k.ises) {
      const IseVariant& v = lib_->ise(ise);
      if (!v.fits(planner.free_prcs(), planner.free_cg())) continue;
      opt.ises.push_back(ise);
      // Optimistic bound: the root planner has the shortest port backlog and
      // the fullest set of reusable instances any node will ever see, so no
      // deeper evaluation of this ISE can exceed this profit. With the memo
      // attached these evaluations seed it: the search re-meets the root
      // planner state along the all-"no ISE" DFS prefix of every kernel.
      const double profit = evaluate_candidate_profit(
          *lib_, ise, entry, planner, ProfitModel{}, cache_, scratch);
      ++ub_evals;
      opt.upper_bound = std::max(opt.upper_bound, profit);
    }
    kernels.push_back(std::move(opt));
  }

  // Search kernels with the largest upper bound first: tightens the bound
  // early and prunes more of the tree.
  std::sort(kernels.begin(), kernels.end(),
            [](const KernelOptions& a, const KernelOptions& b) {
              return a.upper_bound > b.upper_bound;
            });

  SearchState st;
  st.lib = lib_;
  st.kernels = &kernels;
  st.node_budget = node_budget_;
  st.ub_suffix.assign(kernels.size() + 1, 0.0);
  for (std::size_t i = kernels.size(); i > 0; --i) {
    st.ub_suffix[i - 1] = st.ub_suffix[i] + kernels[i - 1].upper_bound;
  }
  st.cache = cache_;
  st.scratch = &scratch;

  dfs(st, 0, planner);
  last_combinations_ = st.combinations;

  SelectionResult result;
  result.selected = std::move(st.best_selection);
  result.total_profit = std::max(0.0, st.best_profit);
  result.profit_evaluations = st.profit_evals + ub_evals;
  result.candidates_scanned = st.nodes;
  result.overhead_cycles = 0;  // not meaningful: this algorithm is offline
  if (cache_ != nullptr) cache_->flush(counters_, trace_, planner.now());
  if (trace_ != nullptr) {
    for (std::size_t i = 0; i < result.selected.size(); ++i) {
      const SelectedIse& sel = result.selected[i];
      trace_->record({TraceEventKind::kSelectorPick, kTrackSelector,
                      planner.now(), 0, raw(sel.kernel), raw(sel.ise),
                      sel.profit, static_cast<double>(i + 1)});
    }
  }
  return result;
}

}  // namespace mrts
