// Unit tests for the ISE selectors: the Fig. 6 greedy heuristic and the
// branch & bound optimal algorithm, plus the property optimal >= heuristic.

#include <gtest/gtest.h>

#include "isa/ise_builder.h"
#include "rts/selector_heuristic.h"
#include "rts/selector_optimal.h"
#include "util/rng.h"

namespace mrts {
namespace {

/// Library with two kernels:
///  * HOT: data-dominant, many executions, FG2/CG2/MG variants
///  * COLD: control-dominant, few executions
IseLibrary two_kernel_library() {
  IseLibrary lib;
  IseBuildSpec hot;
  hot.kernel_name = "HOT";
  hot.sw_latency = 1000;
  hot.control_fraction = 0.2;
  hot.fg_data_path_names = {"hot_fg1", "hot_fg2"};
  hot.cg_data_path_names = {"hot_cg1", "hot_cg2"};
  build_kernel_ises(lib, hot);

  IseBuildSpec cold;
  cold.kernel_name = "COLD";
  cold.sw_latency = 800;
  cold.control_fraction = 0.8;
  cold.fg_data_path_names = {"cold_fg1", "cold_fg2"};
  cold.cg_data_path_names = {"cold_cg1"};
  build_kernel_ises(lib, cold);
  return lib;
}

TriggerInstruction make_trigger(const IseLibrary& lib, double hot_e,
                                double cold_e) {
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("HOT"), hot_e, 500, 50});
  ti.entries.push_back({lib.find_kernel("COLD"), cold_e, 800, 120});
  return ti;
}

TEST(HeuristicSelector, SelectsExactlyOneIsePerKernelWhenFabricAllows) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 2000, 500),
                                            planner);
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_NE(r.selected[0].kernel, r.selected[1].kernel);
}

TEST(HeuristicSelector, RespectsResourceConstraint) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  for (unsigned prcs = 0; prcs <= 4; ++prcs) {
    for (unsigned cg = 0; cg <= 3; ++cg) {
      ReconfigPlanner planner(lib.data_paths(), prcs, cg, 0);
      const SelectionResult r =
          selector.select(make_trigger(lib, 2000, 500), planner);
      unsigned used_fg = 0;
      unsigned used_cg = 0;
      for (const auto& sel : r.selected) {
        used_fg += lib.ise(sel.ise).fg_units;
        used_cg += lib.ise(sel.ise).cg_units;
      }
      EXPECT_LE(used_fg, prcs);
      EXPECT_LE(used_cg, cg);
    }
  }
}

TEST(HeuristicSelector, NoFabricMeansNoSelection) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 0, 0, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 2000, 500),
                                            planner);
  EXPECT_TRUE(r.selected.empty());
}

TEST(HeuristicSelector, HotKernelWinsScarceFabric) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  // Only one CG fabric: the kernel with the larger profit contribution (HOT,
  // data-dominant with many executions) must get it.
  ReconfigPlanner planner(lib.data_paths(), 0, 1, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 3000, 50),
                                            planner);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0].kernel, lib.find_kernel("HOT"));
}

TEST(HeuristicSelector, FewExecutionsFavorCgManyFavorFg) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("COLD"), 30, 100, 50});

  ReconfigPlanner planner_small(lib.data_paths(), 4, 3, 0);
  const SelectionResult small = selector.select(ti, planner_small);
  ASSERT_EQ(small.selected.size(), 1u);
  EXPECT_GT(lib.ise(small.selected[0].ise).cg_units, 0u)
      << "30 executions cannot amortize a 1.2 ms FG load";

  ti.entries[0].expected_executions = 200'000;
  ReconfigPlanner planner_large(lib.data_paths(), 4, 3, 0);
  const SelectionResult large = selector.select(ti, planner_large);
  ASSERT_EQ(large.selected.size(), 1u);
  EXPECT_GT(lib.ise(large.selected[0].ise).fg_units, 0u)
      << "a control kernel with 200k executions amortizes the FG fabric";
}

TEST(HeuristicSelector, CoveredVariantsArePrunedNotSelected) {
  // One kernel; once FG2 is selected, FG1 (a prefix) is covered and must
  // appear in `covered`, not selected for another kernel slot.
  IseLibrary lib;
  IseBuildSpec spec;
  spec.kernel_name = "K";
  spec.sw_latency = 1000;
  spec.control_fraction = 0.5;
  spec.fg_data_path_names = {"fg1", "fg2"};
  spec.cg_data_path_names = {};
  spec.build_mg_variants = false;
  spec.mono_cg_speedup = 0.0;
  build_kernel_ises(lib, spec);

  // Two kernels sharing the same data paths: selecting K's FG2 covers L's
  // FG variants entirely.
  IseBuildSpec shared = spec;
  shared.kernel_name = "L";
  build_kernel_ises(lib, shared);

  HeuristicSelector selector(lib);
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("K"), 100'000, 100, 10});
  ti.entries.push_back({lib.find_kernel("L"), 100'000, 100, 10});
  ReconfigPlanner planner(lib.data_paths(), 2, 0, 0);
  const SelectionResult r = selector.select(ti, planner);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_FALSE(r.covered.empty());
  // The other kernel's variants were covered by the shared data paths.
  bool other_covered = false;
  for (const auto& [k, ise] : r.covered) {
    if (k != r.selected[0].kernel) other_covered = true;
  }
  EXPECT_TRUE(other_covered);
}

TEST(HeuristicSelector, DeterministicAcrossRuns) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 3, 2, 0);
  const SelectionResult a = selector.select(make_trigger(lib, 1234, 567),
                                            planner);
  const SelectionResult b = selector.select(make_trigger(lib, 1234, 567),
                                            planner);
  ASSERT_EQ(a.selected.size(), b.selected.size());
  for (std::size_t i = 0; i < a.selected.size(); ++i) {
    EXPECT_EQ(a.selected[i].ise, b.selected[i].ise);
  }
}

TEST(HeuristicSelector, OverheadModelCountsEvaluations) {
  const IseLibrary lib = two_kernel_library();
  SelectorCostModel cost;
  HeuristicSelector selector(lib, cost);
  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 2000, 500),
                                            planner);
  EXPECT_GT(r.profit_evaluations, 0u);
  EXPECT_GE(r.first_round_evaluations, 1u);
  EXPECT_LE(r.first_round_evaluations, r.profit_evaluations);
  EXPECT_EQ(r.overhead_cycles,
            cost.cost(r.profit_evaluations, r.candidates_scanned));
}

TEST(OptimalSelector, MatchesHeuristicOnTrivialProblem) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector heuristic(lib);
  OptimalSelector optimal(lib);
  // Plenty of fabric: both should pick the per-kernel best.
  ReconfigPlanner p1(lib.data_paths(), 8, 8, 0);
  ReconfigPlanner p2(lib.data_paths(), 8, 8, 0);
  const SelectionResult h = heuristic.select(make_trigger(lib, 2000, 500), p1);
  const SelectionResult o = optimal.select(make_trigger(lib, 2000, 500), p2);
  EXPECT_NEAR(h.total_profit, o.total_profit,
              0.01 * std::max(1.0, o.total_profit));
}

TEST(OptimalSelector, NeverWorseThanHeuristic) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector heuristic(lib);
  OptimalSelector optimal(lib);
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const double hot_e = static_cast<double>(rng.uniform_int(10, 5000));
    const double cold_e = static_cast<double>(rng.uniform_int(10, 5000));
    const auto prcs = static_cast<unsigned>(rng.uniform_int(0, 4));
    const auto cg = static_cast<unsigned>(rng.uniform_int(0, 3));
    ReconfigPlanner p1(lib.data_paths(), prcs, cg, 0);
    ReconfigPlanner p2(lib.data_paths(), prcs, cg, 0);
    const TriggerInstruction ti = make_trigger(lib, hot_e, cold_e);
    const SelectionResult h = heuristic.select(ti, p1);
    const SelectionResult o = optimal.select(ti, p2);
    EXPECT_GE(o.total_profit, h.total_profit - 1e-6)
        << "prcs=" << prcs << " cg=" << cg << " hot=" << hot_e
        << " cold=" << cold_e;
  }
}

TEST(OptimalSelector, RespectsResourceConstraint) {
  const IseLibrary lib = two_kernel_library();
  OptimalSelector optimal(lib);
  ReconfigPlanner planner(lib.data_paths(), 2, 1, 0);
  const SelectionResult r = optimal.select(make_trigger(lib, 2000, 500),
                                           planner);
  unsigned used_fg = 0;
  unsigned used_cg = 0;
  for (const auto& sel : r.selected) {
    used_fg += lib.ise(sel.ise).fg_units;
    used_cg += lib.ise(sel.ise).cg_units;
  }
  EXPECT_LE(used_fg, 2u);
  EXPECT_LE(used_cg, 1u);
  EXPECT_LE(r.selected.size(), 2u);
}

TEST(HeuristicSelector, TraceExplainsEveryDecision) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 2, 1, 0);
  std::string trace;
  const SelectionResult r =
      selector.select_with_trace(make_trigger(lib, 2000, 500), planner, trace);
  EXPECT_NE(trace.find("candidate list:"), std::string::npos);
  EXPECT_NE(trace.find("round 1:"), std::string::npos);
  for (const auto& sel : r.selected) {
    EXPECT_NE(trace.find("selected " + lib.ise(sel.ise).name),
              std::string::npos)
        << trace;
  }
  // The trace and the plain API must agree.
  ReconfigPlanner planner2(lib.data_paths(), 2, 1, 0);
  const SelectionResult plain =
      selector.select(make_trigger(lib, 2000, 500), planner2);
  ASSERT_EQ(plain.selected.size(), r.selected.size());
  for (std::size_t i = 0; i < plain.selected.size(); ++i) {
    EXPECT_EQ(plain.selected[i].ise, r.selected[i].ise);
  }
}

TEST(HeuristicSelector, DensityPolicyAvoidsResourceHogging) {
  // Two kernels with similar weights on a 2-PRC machine: the max-profit
  // policy gives both PRCs to one kernel's FG2; the density policy spreads
  // two FG1 variants — which here has the higher combined profit.
  IseLibrary lib;
  for (const char* name : {"P", "Q"}) {
    IseBuildSpec spec;
    spec.kernel_name = name;
    spec.sw_latency = 1000;
    spec.control_fraction = 0.5;
    spec.fg_data_path_names = {std::string(name) + "_fg1",
                               std::string(name) + "_fg2"};
    spec.cg_data_path_names = {};
    spec.build_mg_variants = false;
    spec.mono_cg_speedup = 0.0;
    build_kernel_ises(lib, spec);
  }
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("P"), 50'000, 100, 20});
  ti.entries.push_back({lib.find_kernel("Q"), 48'000, 100, 20});

  HeuristicSelector max_profit(lib);
  ReconfigPlanner p1(lib.data_paths(), 2, 0, 0);
  const SelectionResult greedy = max_profit.select(ti, p1);

  HeuristicSelector density(lib, SelectorCostModel{},
                            SelectionPolicy::kMaxProfitDensity);
  ReconfigPlanner p2(lib.data_paths(), 2, 0, 0);
  const SelectionResult spread = density.select(ti, p2);

  ASSERT_EQ(greedy.selected.size(), 1u);  // FG2 hogs both PRCs
  ASSERT_EQ(spread.selected.size(), 2u);  // one FG1 per kernel
  EXPECT_GT(spread.total_profit, greedy.total_profit);
}

TEST(HeuristicSelector, WorkIsLinearInCandidates) {
  // Section 4.1's O(N*M): profit evaluations are bounded by one evaluation
  // per candidate per committed round, i.e. <= N * (N*M).
  for (unsigned kernels : {2u, 6u}) {
    IseLibrary lib;
    for (unsigned k = 0; k < kernels; ++k) {
      IseBuildSpec spec;
      spec.kernel_name = "N";
      spec.kernel_name += std::to_string(k);
      spec.sw_latency = 700;
      spec.control_fraction = 0.4;
      spec.fg_data_path_names = {spec.kernel_name + "_f1",
                                 spec.kernel_name + "_f2",
                                 spec.kernel_name + "_f3"};
      spec.cg_data_path_names = {spec.kernel_name + "_c1",
                                 spec.kernel_name + "_c2"};
      spec.fg_control_dps = 3;
      spec.cg_data_dps = 2;
      build_kernel_ises(lib, spec);
    }
    TriggerInstruction ti;
    ti.functional_block = FunctionalBlockId{0};
    for (const auto& kernel : lib.kernels()) {
      ti.entries.push_back({kernel.id, 5000.0, 400, 100});
    }
    const std::size_t m = lib.kernel(KernelId{0}).ises.size();
    HeuristicSelector selector(lib);
    ReconfigPlanner planner(lib.data_paths(), 6, 4, 0);
    const SelectionResult r = selector.select(ti, planner);
    EXPECT_LE(r.profit_evaluations,
              static_cast<std::uint64_t>(kernels) * kernels * m);
    EXPECT_GE(r.profit_evaluations, static_cast<std::uint64_t>(m));
  }
}

TEST(OptimalSelector, CountsCombinations) {
  const IseLibrary lib = two_kernel_library();
  OptimalSelector optimal(lib);
  ReconfigPlanner planner(lib.data_paths(), 8, 8, 0);
  optimal.select(make_trigger(lib, 2000, 500), planner);
  EXPECT_GT(optimal.last_combinations(), 0u);
}

}  // namespace
}  // namespace mrts
