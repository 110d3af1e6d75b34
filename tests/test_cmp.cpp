// Tests for the CMP simulation layer (sim/cmp.h) and the unified Machine
// construction API (sim/machine.h): the one-core degenerate case must
// reproduce run_multi_tenant bit-exactly (results AND trace events), the
// interconnect/port charges must appear exactly where the topology says,
// and machine-built runtime systems must be indistinguishable from the
// hand-wired constructions they replace.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fastpath_guard.h"

#include "arch/fabric_manager.h"
#include "arch/fault_model.h"
#include "isa/ise_builder.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/arbiter.h"
#include "sim/cmp.h"
#include "sim/machine.h"
#include "sim/multi_app.h"
#include "util/counters.h"
#include "util/snapshot_io.h"
#include "util/trace.h"
#include "workload/workload_gen.h"

namespace mrts {
namespace {

/// A combined library with one synthetic kernel per task plus one
/// application trace per task, all sharing one data-path table (the
/// shared-fabric requirement). Same generator as the fig12/fig15 harnesses.
struct CmpApp {
  IseLibrary library;
  std::vector<KernelId> kernels;
  std::vector<ApplicationTrace> traces;
};

CmpApp make_apps(unsigned tasks, unsigned blocks) {
  CmpApp app;
  for (unsigned i = 0; i < tasks; ++i) {
    const std::string name = "T" + std::to_string(i);
    IseBuildSpec spec;
    spec.kernel_name = name;
    spec.sw_latency = 700;
    spec.control_fraction = 0.4;
    spec.fg_data_path_names = {name + "_ctrl_fg", name + "_dp_fg"};
    spec.cg_data_path_names = {name + "_mac_cg"};
    spec.fg_control_dps = 1;
    spec.cg_data_dps = 1;
    app.kernels.push_back(build_kernel_ises(app.library, spec));
  }
  app.traces.resize(tasks);
  for (unsigned i = 0; i < tasks; ++i) {
    Rng rng(1000 + i);
    for (unsigned b = 0; b < blocks; ++b) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, /*macroblocks=*/400,
          {{app.kernels[i], 8.0, 25, 0.1}}, /*entry_gap=*/200,
          /*tail_gap=*/200, rng);
      stamp_programmed_trigger(inst, app.library);
      app.traces[i].blocks.push_back(std::move(inst));
    }
  }
  return app;
}

TenantPolicy weighted(unsigned weight, unsigned priority = 0) {
  TenantPolicy p;
  p.share = TenantShare::kWeighted;
  p.weight = weight;
  p.priority = priority;
  return p;
}

TenantPolicy reserved(unsigned prcs, unsigned cg, unsigned priority = 0) {
  TenantPolicy p;
  p.share = TenantShare::kReserved;
  p.reserved_prcs = prcs;
  p.reserved_cg = cg;
  p.priority = priority;
  return p;
}

bool is_cmp_marker(const TraceEvent& e) {
  return e.kind == TraceEventKind::kCoreSlice ||
         e.kind == TraceEventKind::kCoreTransfer;
}

std::vector<TraceEvent> without_cmp_markers(const std::vector<TraceEvent>& in) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : in) {
    if (!is_cmp_marker(e)) out.push_back(e);
  }
  return out;
}

void expect_events_identical(const std::vector<TraceEvent>& a,
                             const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].track, b[i].track) << "event " << i;
    EXPECT_EQ(a[i].at, b[i].at) << "event " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "event " << i;
    EXPECT_EQ(a[i].arg0, b[i].arg0) << "event " << i;
    EXPECT_EQ(a[i].arg1, b[i].arg1) << "event " << i;
    EXPECT_EQ(a[i].v0, b[i].v0) << "event " << i;
    EXPECT_EQ(a[i].v1, b[i].v1) << "event " << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << "event " << i;
  }
}

void expect_results_identical(const MultiTenantResult& a,
                              const MultiTenantResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].run.name, b.tasks[i].run.name);
    EXPECT_EQ(a.tasks[i].run.active_cycles, b.tasks[i].run.active_cycles);
    EXPECT_EQ(a.tasks[i].run.finished_at, b.tasks[i].run.finished_at);
    EXPECT_EQ(a.tasks[i].run.block_cycles, b.tasks[i].run.block_cycles);
    EXPECT_EQ(a.tasks[i].run.impl_executions, b.tasks[i].run.impl_executions);
    EXPECT_EQ(a.tasks[i].tenant, b.tasks[i].tenant);
    EXPECT_EQ(a.tasks[i].admitted, b.tasks[i].admitted);
    EXPECT_EQ(a.tasks[i].admission_reason, b.tasks[i].admission_reason);
    EXPECT_EQ(a.tasks[i].admitted_at, b.tasks[i].admitted_at);
    EXPECT_EQ(a.tasks[i].deadline_met, b.tasks[i].deadline_met);
  }
}

/// Builds a 2-tenant arbitrated workload and its tasks against the given
/// fabric objects. \p recorder (optional) is attached to both tasks.
struct ArbitratedRig {
  CmpApp app;
  std::unique_ptr<FabricManager> fabric;
  std::unique_ptr<FabricArbiter> arbiter;
  std::vector<std::unique_ptr<MRts>> rts;
  std::vector<Task> tasks;
};

ArbitratedRig make_rig(unsigned tenants, unsigned blocks,
                       TraceRecorder* recorder) {
  ArbitratedRig rig;
  rig.app = make_apps(tenants, blocks);
  rig.fabric = std::make_unique<FabricManager>(
      1, 2, &rig.app.library.data_paths());
  rig.arbiter = std::make_unique<FabricArbiter>(*rig.fabric);
  for (unsigned i = 0; i < tenants; ++i) {
    const auto reg = rig.arbiter->register_tenant("T" + std::to_string(i),
                                                  weighted(1 + i));
    rig.rts.push_back(
        std::make_unique<MRts>(rig.app.library, rig.arbiter->binding(reg.id)));
    Task task;
    task.name = "T" + std::to_string(i);
    task.rts = rig.rts.back().get();
    task.trace = &rig.app.traces[i];
    task.tenant = reg.id;
    task.recorder = recorder;
    rig.tasks.push_back(std::move(task));
  }
  return rig;
}

// ---------------------------------------------------------------------------
// The degenerate-case contract.

TEST(Cmp, OneCoreReproducesRunMultiTenantBitExactly) {
  TraceRecorder ref_rec;
  ArbitratedRig ref = make_rig(2, 6, &ref_rec);
  const MultiTenantResult expected = run_multi_tenant(ref.tasks,
                                                      ref.arbiter.get());

  TraceRecorder cmp_rec;
  ArbitratedRig rig = make_rig(2, 6, &cmp_rec);
  std::vector<CmpCore> cores(1);
  cores[0].tasks = rig.tasks;
  CmpParams params;
  params.fabric = rig.fabric.get();
  const CmpResult actual =
      run_cmp(cores, Interconnect(), rig.arbiter.get(), params);

  ASSERT_EQ(actual.cores.size(), 1u);
  EXPECT_EQ(actual.total_cycles, expected.total_cycles);
  EXPECT_EQ(actual.cores[0].interconnect_cycles, 0u);
  EXPECT_EQ(actual.cores[0].port_wait_cycles, 0u);
  expect_results_identical(actual.cores[0].run, expected);

  // The trace streams agree event for event once the purely additive
  // core.slice markers are removed (no core.transfer may appear at all:
  // distance 1 means zero extra cycles).
  for (const TraceEvent& e : cmp_rec.events()) {
    EXPECT_NE(e.kind, TraceEventKind::kCoreTransfer);
  }
  expect_events_identical(without_cmp_markers(cmp_rec.events()),
                          ref_rec.events());
}

TEST(Cmp, OneCoreMarkersCoverTheTimeline) {
  TraceRecorder rec;
  ArbitratedRig rig = make_rig(2, 4, &rec);
  std::vector<CmpCore> cores(1);
  cores[0].tasks = rig.tasks;
  CmpParams params;
  params.fabric = rig.fabric.get();
  const CmpResult result =
      run_cmp(cores, Interconnect(), rig.arbiter.get(), params);

  unsigned slices = 0;
  std::uint64_t blocks = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind != TraceEventKind::kCoreSlice) continue;
    ++slices;
    blocks += e.arg1;
    EXPECT_EQ(e.track, kTrackCoreBase);
    EXPECT_EQ(e.arg0, 0u);
    EXPECT_EQ(e.v0, 0.0);  // no transfer cycles at distance 1
    EXPECT_EQ(e.v1, 0.0);  // no port contention with one core
  }
  EXPECT_GT(slices, 0u);
  std::uint64_t ran = 0;
  for (const MultiTenantTaskResult& t : result.cores[0].run.tasks) {
    ran += t.run.block_cycles.size();
  }
  EXPECT_EQ(blocks, ran);
}

// ---------------------------------------------------------------------------
// Interconnect charging.

TEST(Cmp, FlatTopologyChargesNoTransferCycles) {
  ArbitratedRig rig = make_rig(4, 3, nullptr);
  std::vector<CmpCore> cores(4);
  for (std::size_t c = 0; c < 4; ++c) cores[c].tasks = {rig.tasks[c]};
  CmpParams params;
  params.fabric = rig.fabric.get();
  const CmpResult result = run_cmp(
      cores, Interconnect(InterconnectParams::linear_chain(4, 0)),
      rig.arbiter.get(), params);
  for (const CmpCoreResult& core : result.cores) {
    EXPECT_EQ(core.interconnect_cycles, 0u);
  }
}

TEST(Cmp, ChainTopologyChargesPerBlockTransfers) {
  const unsigned kBlocks = 3;
  ArbitratedRig rig = make_rig(2, kBlocks, nullptr);
  std::vector<CmpCore> cores(2);
  cores[0].tasks = {rig.tasks[0]};
  cores[1].tasks = {rig.tasks[1]};
  const Interconnect icn(InterconnectParams::linear_chain(2, 1));
  CmpParams params;
  params.transfers_per_block = 3;
  params.fabric = rig.fabric.get();
  const CmpResult result = run_cmp(cores, icn, rig.arbiter.get(), params);

  // Core 0 sits at distance 1 (zero extra); core 1 at distance 2 pays
  // transfers_per_block * core_link_cycles * (distance - 1) per block.
  EXPECT_EQ(result.cores[0].interconnect_cycles, 0u);
  const Cycles per_block = 3 * icn.core_extra_cycles(1);
  EXPECT_GT(per_block, 0u);
  EXPECT_EQ(result.cores[1].interconnect_cycles, kBlocks * per_block);
  // The charge lands inside the core's own timeline.
  EXPECT_GE(result.cores[1].run.tasks[0].run.active_cycles,
            kBlocks * per_block);
}

TEST(Cmp, MultiCoreRunsAreDeterministic) {
  auto run_once = [] {
    ArbitratedRig rig = make_rig(4, 4, nullptr);
    std::vector<CmpCore> cores(4);
    for (std::size_t c = 0; c < 4; ++c) cores[c].tasks = {rig.tasks[c]};
    CmpParams params;
    params.fabric = rig.fabric.get();
    return run_cmp(cores, Interconnect(InterconnectParams::linear_chain(4, 1)),
                   rig.arbiter.get(), params);
  };
  const CmpResult a = run_once();
  const CmpResult b = run_once();
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    EXPECT_EQ(a.cores[c].interconnect_cycles, b.cores[c].interconnect_cycles);
    EXPECT_EQ(a.cores[c].port_wait_cycles, b.cores[c].port_wait_cycles);
    EXPECT_EQ(a.cores[c].reconfig_slices, b.cores[c].reconfig_slices);
    expect_results_identical(a.cores[c].run, b.cores[c].run);
  }
}

std::string jsonl_of(const TraceRecorder& rec) {
  std::ostringstream os;
  write_trace_jsonl(os, rec.events());
  return os.str();
}

std::vector<std::uint8_t> counters_of(const CounterRegistry& counters) {
  SnapshotWriter w;
  counters.save_state(w);
  return w.take();
}

TEST(Cmp, FastPathMatchesPerEventOracleUnderContention) {
  // More cores than PRCs on one arbitrated pool: reconfigurations keep
  // finishing partway through a run, so the ECU commits run prefixes in
  // bulk and steps only the boundary executions. With a recorder per core
  // and counters attached, everything must equal per-event execution.
  struct Output {
    CmpResult result;
    std::vector<std::string> jsonl;  ///< per core
    std::vector<std::uint8_t> counters;
  };
  auto run = [](unsigned n, bool chain, bool fastpath) {
    const FastpathGuard guard(fastpath);
    const CmpApp app = make_apps(n, 3);
    MachineConfig mc;
    mc.cores = n;
    mc.prcs = 4;
    mc.cg_fabrics = 2;
    mc.tenancy = Tenancy::kArbitrated;
    mc.interconnect = InterconnectParams::linear_chain(n, chain ? 1 : 0);
    Machine machine(app.library, mc);
    std::vector<TraceRecorder> recs(n);
    CounterRegistry counters;
    std::vector<CmpCore> cores(n);
    for (unsigned i = 0; i < n; ++i) {
      Task task;
      task.name = "T" + std::to_string(i);
      const auto reg = machine.register_tenant(task.name, weighted(1));
      task.rts = &machine.add_rts(reg.id);
      task.trace = &app.traces[i];
      task.tenant = reg.id;
      task.recorder = &recs[i];
      cores[i].tasks.push_back(std::move(task));
    }
    for (unsigned i = 0; i < n; ++i) {
      machine.mrts(i).attach_observability(&recs[i], &counters);
    }
    CmpParams params;
    params.fabric = &machine.fabric();
    Output out;
    out.result =
        run_cmp(cores, machine.interconnect(), &machine.arbiter(), params);
    for (const TraceRecorder& rec : recs) out.jsonl.push_back(jsonl_of(rec));
    out.counters = counters_of(counters);
    return out;
  };
  for (const unsigned n : {16u, 64u}) {
    for (const bool chain : {false, true}) {
      const std::string what =
          std::string(chain ? "chain/" : "flat/") + std::to_string(n);
      const Output fast = run(n, chain, true);
      const Output oracle = run(n, chain, false);
      EXPECT_EQ(fast.result.total_cycles, oracle.result.total_cycles) << what;
      ASSERT_EQ(fast.result.cores.size(), oracle.result.cores.size()) << what;
      for (std::size_t c = 0; c < fast.result.cores.size(); ++c) {
        const CmpCoreResult& a = fast.result.cores[c];
        const CmpCoreResult& b = oracle.result.cores[c];
        EXPECT_EQ(a.interconnect_cycles, b.interconnect_cycles) << what;
        EXPECT_EQ(a.port_wait_cycles, b.port_wait_cycles) << what;
        EXPECT_EQ(a.reconfig_slices, b.reconfig_slices) << what;
        expect_results_identical(a.run, b.run);
        EXPECT_EQ(fast.jsonl[c], oracle.jsonl[c]) << what << " core " << c;
      }
      EXPECT_EQ(fast.counters, oracle.counters) << what;
      EXPECT_GT(fast.result.total_cycles, 0u) << what;
    }
  }
}

TEST(Cmp, PrefixCommitStopsAtTheAvailabilityPoint) {
  // One kernel on a private 2-PRC machine without CG fabrics: it runs in
  // RISC mode until its first FG data path arrives at cycle T, the first
  // point of its timeline. The bulk prefix may only take executions that
  // start at or before T - 1. Shifting the block's entry gap puts an
  // execution start exactly on T, one cycle before it and one cycle after
  // it; each must equal per-event execution, and the first upgraded
  // execution must start where the schedule says.
  const CmpApp app = make_apps(1, 1);
  const KernelId k = app.kernels[0];
  constexpr Cycles kGap = 25;
  constexpr Cycles kEntry = 1000;
  constexpr std::size_t kExecutions = 4000;
  const Cycles period = kGap + app.library.kernel(k).sw_latency;
  const TriggerInstruction programmed = app.traces[0].blocks[0].programmed;

  struct Output {
    AppRunResult result;
    std::vector<TraceEvent> events;
    std::string jsonl;
    std::vector<std::uint8_t> counters;
  };
  auto run = [&](Cycles entry, bool fastpath) {
    const FastpathGuard guard(fastpath);
    ApplicationTrace trace;
    FunctionalBlockInstance block;
    block.functional_block = FunctionalBlockId{0};
    block.programmed = programmed;
    block.events.assign(kExecutions, ExecEvent{k, kGap});
    block.events.front().gap_before = entry;
    decode_runs(block.events, block.runs);
    trace.blocks.push_back(std::move(block));
    MRts rts(app.library, /*num_cg_fabrics=*/0, /*num_prcs=*/2);
    TraceRecorder rec;
    CounterRegistry counters;
    rts.attach_observability(&rec, &counters);
    Output out;
    out.result = run_application(rts, trace, &rec);
    out.events = rec.events();
    out.jsonl = jsonl_of(rec);
    out.counters = counters_of(counters);
    return out;
  };
  // Cycle of the first timeline upgrade and start of the first execution
  // decided by something other than RISC mode.
  auto upgrade_points = [](const std::vector<TraceEvent>& events) {
    Cycles upgrade = kNeverCycles;
    Cycles first_upgraded_start = kNeverCycles;
    for (const TraceEvent& e : events) {
      if (e.kind == TraceEventKind::kEcuUpgrade && upgrade == kNeverCycles) {
        upgrade = e.at;
      }
      if (e.kind == TraceEventKind::kEcuDecision &&
          e.arg1 != static_cast<std::uint32_t>(ImplKind::kRisc) &&
          first_upgraded_start == kNeverCycles) {
        first_upgraded_start = e.at;
      }
    }
    return std::make_pair(upgrade, first_upgraded_start);
  };

  const auto [t, probe_start] = upgrade_points(run(kEntry, false).events);
  ASSERT_NE(t, kNeverCycles) << "no FG data path arrived inside the block";
  ASSERT_GE(probe_start, t);
  ASSERT_LT(probe_start - t, period);
  ASSERT_GT(t, kEntry + 2 * period) << "upgrade before the run got steady";
  // probe_start - t = delta: starting every execution delta cycles earlier
  // lands one start exactly on T.
  const Cycles on_t = kEntry - (probe_start - t);
  struct Case {
    const char* what;
    Cycles entry;
    Cycles expected_first_upgraded_start;
  };
  for (const Case c : {Case{"start on T", on_t, t},
                       Case{"start at T - 1", on_t - 1, t - 1 + period},
                       Case{"start at T + 1", on_t + 1, t + 1}}) {
    const Output fast = run(c.entry, true);
    const Output oracle = run(c.entry, false);
    EXPECT_EQ(fast.result.total_cycles, oracle.result.total_cycles) << c.what;
    EXPECT_EQ(fast.result.block_cycles, oracle.result.block_cycles) << c.what;
    EXPECT_EQ(fast.result.impl_executions, oracle.result.impl_executions)
        << c.what;
    EXPECT_EQ(fast.result.impl_cycles, oracle.result.impl_cycles) << c.what;
    EXPECT_EQ(fast.jsonl, oracle.jsonl) << c.what;
    EXPECT_EQ(fast.counters, oracle.counters) << c.what;
    const auto [fast_t, fast_start] = upgrade_points(fast.events);
    EXPECT_EQ(fast_t, t) << c.what;
    EXPECT_EQ(fast_start, c.expected_first_upgraded_start) << c.what;
  }
}

// ---------------------------------------------------------------------------
// Cross-core arbitration semantics.

TEST(Cmp, ReservedPartitionIsolatedAcrossCores) {
  CmpApp app = make_apps(3, 4);
  FabricManager fabric(2, 4, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  const auto rt = arbiter.register_tenant("rt", reserved(1, 1, 2));
  const auto w1 = arbiter.register_tenant("w1", weighted(2));
  const auto w2 = arbiter.register_tenant("w2", weighted(2));
  ASSERT_TRUE(rt.admitted);
  MRts rts0(app.library, arbiter.binding(rt.id));
  MRts rts1(app.library, arbiter.binding(w1.id));
  MRts rts2(app.library, arbiter.binding(w2.id));

  std::vector<CmpCore> cores(3);
  const TenantId ids[3] = {rt.id, w1.id, w2.id};
  MRts* rts[3] = {&rts0, &rts1, &rts2};
  for (std::size_t c = 0; c < 3; ++c) {
    Task task;
    task.name = c == 0 ? "rt" : "w" + std::to_string(c);
    task.rts = rts[c];
    task.trace = &app.traces[c];
    task.tenant = ids[c];
    if (c == 0) task.priority = 2;
    cores[c].tasks.push_back(std::move(task));
  }
  CmpParams params;
  params.fabric = &fabric;
  const CmpResult result = run_cmp(cores, Interconnect(), &arbiter, params);

  // Every core completed its blocks, and the reserved tenant's hard
  // partition was never stolen by the weighted tenants on the other cores.
  for (const CmpCoreResult& core : result.cores) {
    EXPECT_EQ(core.run.tasks[0].run.block_cycles.size(), 4u);
  }
  EXPECT_EQ(arbiter.stats(rt.id).evictions_suffered, 0u);
  EXPECT_EQ(arbiter.stats(rt.id).quota_redirects, 0u);
}

TEST(Cmp, QuarantinedTenantIsBouncedItsCoreIdles) {
  CmpApp app = make_apps(2, 4);
  FabricManager fabric(1, 2, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  const auto rt = arbiter.register_tenant("rt", reserved(2, 0));
  const auto w = arbiter.register_tenant("w", weighted(1));
  ASSERT_TRUE(rt.admitted);

  // Rate-1.0 injector: the reserved tenant's own loads quarantine its
  // partition, revoking its admission (same setup as the arbiter tests).
  MRts doomed(app.library, arbiter.binding(rt.id));
  FaultModel model(FaultModelConfig::uniform(1.0, 7));
  RuntimeSystem& base = doomed;
  ASSERT_TRUE(base.attach_fault_model(&model));
  run_application(doomed, app.traces[0]);
  ASSERT_GT(model.stats().quarantined_prcs, 0u);
  ASSERT_FALSE(arbiter.admitted(rt.id));

  MRts healthy(app.library, arbiter.binding(w.id));
  std::vector<CmpCore> cores(2);
  Task dead;
  dead.name = "rt";
  dead.rts = &doomed;
  dead.trace = &app.traces[0];
  dead.tenant = rt.id;
  cores[0].tasks.push_back(std::move(dead));
  Task alive;
  alive.name = "w";
  alive.rts = &healthy;
  alive.trace = &app.traces[1];
  alive.tenant = w.id;
  cores[1].tasks.push_back(std::move(alive));

  CmpParams params;
  params.fabric = &fabric;
  const CmpResult result = run_cmp(cores, Interconnect(), &arbiter, params);

  // Core 0's only task is bounced up front: zero blocks, reason carried;
  // core 1 degrades gracefully and still finishes all its blocks.
  EXPECT_FALSE(result.cores[0].run.tasks[0].admitted);
  EXPECT_FALSE(result.cores[0].run.tasks[0].admission_reason.empty());
  EXPECT_TRUE(result.cores[0].run.tasks[0].run.block_cycles.empty());
  EXPECT_TRUE(result.cores[1].run.tasks[0].admitted);
  EXPECT_EQ(result.cores[1].run.tasks[0].run.block_cycles.size(), 4u);
  EXPECT_EQ(result.total_cycles, result.cores[1].run.total_cycles);
}

TEST(Cmp, ValidationUsesItsOwnPrefix) {
  std::vector<CmpCore> cores(1);
  Task task;  // no rts/trace: invalid
  task.name = "broken";
  cores[0].tasks.push_back(std::move(task));
  try {
    run_cmp(cores, Interconnect());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("run_cmp: ", 0), 0u) << e.what();
  }
}

TEST(Cmp, EmptyCoreListYieldsEmptyResult) {
  const CmpResult result = run_cmp({}, Interconnect());
  EXPECT_EQ(result.total_cycles, 0u);
  EXPECT_TRUE(result.cores.empty());
}

// ---------------------------------------------------------------------------
// The Machine construction API.

TEST(Machine, PrivateTenancyMatchesHandWiredMRts) {
  CmpApp app = make_apps(1, 4);
  MRts hand(app.library, /*num_cg_fabrics=*/2, /*num_prcs=*/4);
  const AppRunResult expected = run_application(hand, app.traces[0]);

  MachineConfig mc;
  mc.prcs = 4;
  mc.cg_fabrics = 2;
  Machine machine(app.library, mc);
  RuntimeSystem& rts = machine.add_rts();
  const AppRunResult actual = run_application(rts, app.traces[0]);

  EXPECT_EQ(actual.total_cycles, expected.total_cycles);
  EXPECT_TRUE(machine.mrts(0).owns_fabric());
  EXPECT_EQ(machine.num_rts(), 1u);
}

TEST(Machine, ArbitratedTenancyMatchesHandWiredStack) {
  TraceRecorder ref_rec;
  ArbitratedRig ref = make_rig(2, 5, &ref_rec);
  const MultiTenantResult expected = run_multi_tenant(ref.tasks,
                                                      ref.arbiter.get());

  CmpApp app = make_apps(2, 5);
  MachineConfig mc;
  mc.prcs = 2;
  mc.cg_fabrics = 1;
  mc.tenancy = Tenancy::kArbitrated;
  Machine machine(app.library, mc);
  TraceRecorder rec;
  std::vector<Task> tasks;
  for (unsigned i = 0; i < 2; ++i) {
    const auto reg = machine.register_tenant("T" + std::to_string(i),
                                             weighted(1 + i));
    Task task;
    task.name = "T" + std::to_string(i);
    task.rts = &machine.add_rts(reg.id);
    task.trace = &app.traces[i];
    task.tenant = reg.id;
    task.recorder = &rec;
    tasks.push_back(std::move(task));
  }
  const MultiTenantResult actual = run_multi_tenant(tasks, &machine.arbiter());

  expect_results_identical(actual, expected);
  expect_events_identical(rec.events(), ref_rec.events());
}

TEST(Machine, SharedTenancyBindsAllRtsToOneFabric) {
  CmpApp app = make_apps(2, 2);
  MachineConfig mc;
  mc.tenancy = Tenancy::kShared;
  Machine machine(app.library, mc);
  machine.add_rts();
  machine.add_rts();
  EXPECT_FALSE(machine.mrts(0).owns_fabric());
  EXPECT_FALSE(machine.mrts(1).owns_fabric());
  EXPECT_EQ(&machine.mrts(0).fabric(), &machine.fabric());
  EXPECT_EQ(&machine.mrts(1).fabric(), &machine.fabric());
}

TEST(Machine, ContractViolationsThrow) {
  CmpApp app = make_apps(1, 1);

  MachineConfig zero_cores;
  zero_cores.cores = 0;
  EXPECT_THROW(Machine(app.library, zero_cores), std::invalid_argument);

  MachineConfig bad_hops;
  bad_hops.interconnect.core_hop_distance = {0};
  EXPECT_THROW(Machine(app.library, bad_hops), std::invalid_argument);

  Machine priv(app.library, MachineConfig{});
  EXPECT_THROW(priv.fabric(), std::logic_error);
  EXPECT_THROW(priv.arbiter(), std::logic_error);
  EXPECT_THROW(priv.register_tenant("t", weighted(1)), std::logic_error);
  EXPECT_THROW(priv.add_rts(TenantId{1}), std::logic_error);

  MachineConfig arb;
  arb.tenancy = Tenancy::kArbitrated;
  Machine arbitrated(app.library, arb);
  // The tenant overloads require a registration: unknown / bounced tenants
  // surface as the admission bounce, not a crash.
  EXPECT_THROW(arbitrated.add_rts(TenantId{42}), std::invalid_argument);
  // The no-tenant overload is for private/shared machines only.
  EXPECT_THROW(arbitrated.add_rts(), std::logic_error);
}

TEST(Machine, MakeRtsIsCallerOwned) {
  CmpApp app = make_apps(1, 2);
  MachineConfig mc;
  mc.tenancy = Tenancy::kArbitrated;
  Machine machine(app.library, mc);
  const auto reg = machine.register_tenant("t", weighted(1));
  {
    std::unique_ptr<MRts> rts = machine.make_rts(reg.id, MRtsConfig{});
    ASSERT_NE(rts, nullptr);
    run_application(*rts, app.traces[0]);
  }
  // The machine kept no reference: churned instances die with their owner.
  EXPECT_EQ(machine.num_rts(), 0u);
  // And the tenant can get a fresh instance afterwards.
  std::unique_ptr<MRts> again = machine.make_rts(reg.id, MRtsConfig{});
  EXPECT_NE(again, nullptr);
}

TEST(Machine, ObservabilityFansOutInCreationOrder) {
  CmpApp app = make_apps(2, 2);
  MachineConfig mc;
  mc.tenancy = Tenancy::kShared;
  Machine machine(app.library, mc);
  machine.add_rts();
  machine.add_rts();
  TraceRecorder rec;
  CounterRegistry counters;
  machine.attach_observability(&rec, &counters);
  // First attachment claims the shared fabric's event stream (the same
  // first-wins contract as attaching by hand, pinned by the arbiter tests).
  run_application(machine.rts(0), app.traces[0]);
  bool saw_reconfig = false;
  for (const TraceEvent& e : rec.events()) {
    saw_reconfig |= e.kind == TraceEventKind::kReconfigStart;
  }
  EXPECT_TRUE(saw_reconfig);
}

}  // namespace
}  // namespace mrts
