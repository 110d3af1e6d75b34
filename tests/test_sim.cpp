// Unit tests for the simulator layer: trigger derivation, block simulation
// (cycle conservation, observation correctness) and application profiling.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "baselines/risc_only_rts.h"
#include "isa/ise_builder.h"
#include "sim/app_simulator.h"
#include "sim/fb_simulator.h"
#include "sim/metrics.h"
#include "sim/schedule.h"
#include "util/rng.h"

namespace mrts {
namespace {

IseLibrary one_kernel_library() {
  IseLibrary lib;
  IseBuildSpec spec;
  spec.kernel_name = "K";
  spec.sw_latency = 100;
  spec.control_fraction = 0.5;
  spec.fg_data_path_names = {"fg"};
  spec.cg_data_path_names = {"cg"};
  build_kernel_ises(lib, spec);
  return lib;
}

FunctionalBlockInstance simple_instance(KernelId k) {
  FunctionalBlockInstance inst;
  inst.functional_block = FunctionalBlockId{0};
  inst.events = {{k, 10}, {k, 20}, {k, 30}};
  inst.tail_gap = 40;
  inst.programmed.functional_block = FunctionalBlockId{0};
  inst.programmed.entries.push_back({k, 3.0, 10, 25});
  return inst;
}

TEST(DeriveTrigger, ComputesExecutionsTfTb) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  const FunctionalBlockInstance inst = simple_instance(k);
  const TriggerInstruction ti =
      derive_trigger(inst, risc_latency_table(lib));
  ASSERT_EQ(ti.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(ti.entries[0].expected_executions, 3.0);
  EXPECT_EQ(ti.entries[0].time_to_first, 10u);
  // Gaps between executions: 20 and 30 -> average 25.
  EXPECT_EQ(ti.entries[0].time_between, 25u);
}

TEST(DeriveTrigger, MultipleKernelsInterleaved) {
  const IseLibrary lib = [] {
    IseLibrary l;
    IseBuildSpec a;
    a.kernel_name = "A";
    a.sw_latency = 10;
    a.fg_data_path_names = {"a_fg"};
    build_kernel_ises(l, a);
    IseBuildSpec b;
    b.kernel_name = "B";
    b.sw_latency = 20;
    b.fg_data_path_names = {"b_fg"};
    build_kernel_ises(l, b);
    return l;
  }();
  const KernelId a = lib.find_kernel("A");
  const KernelId b = lib.find_kernel("B");
  FunctionalBlockInstance inst;
  inst.functional_block = FunctionalBlockId{1};
  inst.events = {{a, 5}, {b, 0}, {a, 0}};
  const TriggerInstruction ti = derive_trigger(inst, risc_latency_table(lib));
  ASSERT_EQ(ti.entries.size(), 2u);
  const TriggerEntry* ea = ti.find(a);
  ASSERT_NE(ea, nullptr);
  EXPECT_DOUBLE_EQ(ea->expected_executions, 2.0);
  EXPECT_EQ(ea->time_to_first, 5u);
  // A's executions: [5,15) and [35,45): gap = 35-15 = 20.
  EXPECT_EQ(ea->time_between, 20u);
  const TriggerEntry* eb = ti.find(b);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(eb->time_to_first, 15u);
}

TEST(RunBlock, CyclesAreConserved) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  RiscOnlyRts rts(lib);
  const FbRunResult r = run_block(rts, simple_instance(k), 1000);
  // 10+100 + 20+100 + 30+100 + 40 tail = 400, no overhead for RISC-only.
  EXPECT_EQ(r.cycles, 400u);
  EXPECT_EQ(r.blocking_overhead, 0u);
  EXPECT_EQ(r.impl_executions[static_cast<std::size_t>(ImplKind::kRisc)], 3u);
  EXPECT_EQ(r.impl_cycles[static_cast<std::size_t>(ImplKind::kRisc)], 300u);
}

TEST(RunBlock, ObservationMatchesSchedule) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  RiscOnlyRts rts(lib);
  const FbRunResult r = run_block(rts, simple_instance(k), 0);
  ASSERT_EQ(r.observed.kernels.size(), 1u);
  const ObservedKernelStats& obs = r.observed.kernels[0];
  EXPECT_DOUBLE_EQ(obs.executions, 3.0);
  EXPECT_EQ(obs.time_to_first, 10u);
  EXPECT_EQ(obs.time_between, 25u);
}

TEST(RunApplication, AccumulatesBlocks) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  ApplicationTrace trace;
  trace.name = "t";
  trace.blocks = {simple_instance(k), simple_instance(k)};
  RiscOnlyRts rts(lib);
  const AppRunResult r = run_application(rts, trace);
  EXPECT_EQ(r.total_cycles, 800u);
  ASSERT_EQ(r.block_cycles.size(), 2u);
  EXPECT_EQ(r.block_cycles[0], 400u);
  EXPECT_EQ(r.rts_name, "RISC-only");
  EXPECT_DOUBLE_EQ(r.impl_fraction(ImplKind::kRisc), 1.0);
}

TEST(ProfileApplication, AveragesPerBlock) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  FunctionalBlockInstance small = simple_instance(k);
  FunctionalBlockInstance big = simple_instance(k);
  big.events.push_back({k, 10});  // 4 executions
  ApplicationTrace trace;
  trace.blocks = {small, big};
  const std::vector<BlockProfile> profile = profile_application(trace, lib);
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_DOUBLE_EQ(profile[0].invocations, 2.0);
  ASSERT_EQ(profile[0].average.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(profile[0].average.entries[0].expected_executions, 3.5);
}

TEST(Metrics, FabricSweepOrderAndLabels) {
  const auto sweep = fabric_sweep(1, 2);
  ASSERT_EQ(sweep.size(), 6u);
  EXPECT_EQ(sweep[0].label(), "00");
  EXPECT_EQ(sweep[1].label(), "01");
  EXPECT_EQ(sweep[5].label(), "12");
  EXPECT_TRUE(sweep[0].risc_only());
  EXPECT_TRUE(sweep[1].cg_only());
  EXPECT_TRUE(sweep[3].fg_only());
  EXPECT_TRUE(sweep[4].multi_grained());
}

TEST(Metrics, SpeedupAndPercentDifference) {
  EXPECT_DOUBLE_EQ(speedup(200, 100), 2.0);
  EXPECT_DOUBLE_EQ(speedup(200, 0), 0.0);
  EXPECT_DOUBLE_EQ(percent_difference(100.0, 111.0), 11.0);
  EXPECT_DOUBLE_EQ(percent_difference(0.0, 5.0), 0.0);
}

TEST(DeriveTrigger, ThrowsOnUnknownKernel) {
  FunctionalBlockInstance inst;
  inst.events = {{KernelId{99}, 0}};
  EXPECT_THROW(derive_trigger(inst, {10, 20}), std::invalid_argument);
}

/// Reference: the per-event walk derive_trigger made before it walked runs.
TriggerInstruction derive_trigger_per_event(
    const FunctionalBlockInstance& instance,
    const std::vector<Cycles>& risc_latency_by_kernel) {
  struct Acc {
    double executions = 0.0;
    Cycles first_start = 0;
    Cycles last_end = 0;
    Cycles gap_sum = 0;
    bool seen = false;
  };
  std::map<std::uint32_t, Acc> acc;
  Cycles cursor = 0;
  for (const auto& ev : instance.events) {
    cursor += ev.gap_before;
    const auto kid = raw(ev.kernel);
    if (kid >= risc_latency_by_kernel.size()) {
      throw std::invalid_argument("derive_trigger: kernel without latency");
    }
    Acc& a = acc[kid];
    if (!a.seen) {
      a.first_start = cursor;
      a.seen = true;
    } else {
      a.gap_sum += cursor - a.last_end;
    }
    a.executions += 1.0;
    cursor += risc_latency_by_kernel[kid];
    a.last_end = cursor;
  }
  TriggerInstruction ti;
  ti.functional_block = instance.functional_block;
  for (const auto& [kid, a] : acc) {
    TriggerEntry entry;
    entry.kernel = KernelId{kid};
    entry.expected_executions = a.executions;
    entry.time_to_first = a.first_start;
    entry.time_between =
        a.executions > 1.0
            ? static_cast<Cycles>(static_cast<double>(a.gap_sum) /
                                  (a.executions - 1.0))
            : Cycles{0};
    ti.entries.push_back(entry);
  }
  return ti;
}

void expect_same_trigger(const TriggerInstruction& actual,
                         const TriggerInstruction& expected,
                         const std::string& what) {
  EXPECT_EQ(actual.functional_block, expected.functional_block) << what;
  ASSERT_EQ(actual.entries.size(), expected.entries.size()) << what;
  for (std::size_t i = 0; i < actual.entries.size(); ++i) {
    const TriggerEntry& a = actual.entries[i];
    const TriggerEntry& b = expected.entries[i];
    EXPECT_EQ(a.kernel, b.kernel) << what << " entry " << i;
    EXPECT_EQ(a.expected_executions, b.expected_executions)
        << what << " entry " << i;
    EXPECT_EQ(a.time_to_first, b.time_to_first) << what << " entry " << i;
    EXPECT_EQ(a.time_between, b.time_between) << what << " entry " << i;
  }
}

/// A seeded schedule of 1-6 interleaved kernels: runs of random length
/// (single executions included), kernels that recur in non-adjacent runs
/// and gaps that are often zero.
FunctionalBlockInstance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  FunctionalBlockInstance inst;
  inst.functional_block = FunctionalBlockId{static_cast<std::uint32_t>(seed)};
  const auto kernels = 1 + rng.next_below(6);
  const auto runs = rng.next_below(40);
  for (std::uint64_t r = 0; r < runs; ++r) {
    // Ids are drawn from a shuffled range so entry order must come from
    // sorting, not from first appearance.
    const KernelId k{static_cast<std::uint32_t>(
        (rng.next_below(kernels) * 5 + seed) % 6)};
    const auto count = 1 + (rng.bernoulli(0.3) ? 0 : rng.next_below(30));
    for (std::uint64_t e = 0; e < count; ++e) {
      const Cycles gap = rng.bernoulli(0.4) ? 0 : rng.next_below(500);
      inst.events.push_back({k, gap});
    }
  }
  return inst;
}

TEST(DeriveTrigger, RunWalkMatchesPerEventWalk) {
  const std::vector<Cycles> latency = {7, 100, 1, 55, 0, 13};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    FunctionalBlockInstance inst = random_instance(seed);
    const std::string what = "seed " + std::to_string(seed);
    const TriggerInstruction expected =
        derive_trigger_per_event(inst, latency);
    // Hand-built (no decoded runs), then decoded.
    expect_same_trigger(derive_trigger(inst, latency), expected,
                        what + " hand-built");
    decode_runs(inst.events, inst.runs);
    expect_same_trigger(derive_trigger(inst, latency), expected,
                        what + " decoded");
  }
}

TEST(DeriveTrigger, ThrowsForAKernelWithoutLatencyThenRecovers) {
  const std::vector<Cycles> latency = {10, 20};
  FunctionalBlockInstance bad;
  bad.events = {{KernelId{0}, 5}, {KernelId{0}, 0}, {KernelId{1}, 3},
                {KernelId{2}, 0}, {KernelId{0}, 9}};
  EXPECT_THROW(derive_trigger(bad, latency), std::invalid_argument);
  decode_runs(bad.events, bad.runs);
  EXPECT_THROW(derive_trigger(bad, latency), std::invalid_argument);

  // Nothing of the failed call leaks into the next one.
  FunctionalBlockInstance good = bad;
  good.events[3].kernel = KernelId{1};
  good.runs.clear();
  expect_same_trigger(derive_trigger(good, latency),
                      derive_trigger_per_event(good, latency), "after throw");
}

}  // namespace
}  // namespace mrts
