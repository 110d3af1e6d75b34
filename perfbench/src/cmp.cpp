// cmp_scaleout: run_cmp on an arbitrated shared 4-PRC/2-CG pool at a few
// core counts, flat and linear-chain, each point regenerating its per-core
// workload the way bench_fig15_cmp does.

#include <memory>
#include <sstream>

#include "checks.h"
#include "cmp_workload.h"
#include "isa/ise_builder.h"
#include "report.h"
#include "sim/machine.h"
#include "timing_rts.h"
#include "util/fastpath.h"
#include "util/rng.h"
#include "workload/workload_gen.h"

namespace perfbench {
namespace {

using namespace mrts;

constexpr unsigned kPrcs = 4;
constexpr unsigned kCgFabrics = 2;
/// bench_fig15_cmp seeds core i with Rng(1000 + i); benchmark seed n and
/// pass k shift that base by 1000 * (n + k), so seed 0's first pass is the
/// committed golden's workload and every pass is a fresh sweep.
constexpr std::uint64_t kDefaultSeedBase = 1000;

struct Point {
  bool chain = false;
  unsigned cores = 0;
};
const Point kPoints[] = {{false, 4}, {false, 16}, {false, 64},
                         {true, 4},  {true, 16},  {true, 64}};

/// "C<i>": core i's kernel and tenant name. Built by append: GCC 12 warns
/// (-Wrestrict, a false positive) on `"C" + std::to_string(i)` here.
std::string core_name(unsigned i) {
  std::string name = "C";
  name += std::to_string(i);
  return name;
}

std::string point_name(const Point& p) {
  return std::string(p.chain ? "chain" : "flat") + "/" +
         std::to_string(p.cores);
}

struct PointOutcome {
  CmpResult run;
  std::uint64_t blocks = 0;
  std::uint64_t kexec = 0;
  std::uint64_t triggers = 0;
  std::uint64_t profit_evals = 0;
  ReconfigStats reconfig;
};

/// Generates the point's workload, builds the arbitrated machine (one
/// weighted:1 tenant per core) and runs the CMP scheduler to completion.
PointOutcome run_point(const Point& p, std::uint64_t seed_base,
                       Ledger* ledger) {
  CmpWorkload w;
  {
    Span span(ledger, "workload.gen");
    w = generate_cmp_workload(p.cores, seed_base);
  }
  std::unique_ptr<Machine> machine;
  std::vector<CmpCore> cores(p.cores);
  std::vector<std::unique_ptr<TimingRts>> timed;
  {
    Span span(ledger, "sim.machine");
    MachineConfig mc;
    mc.cores = p.cores;
    mc.prcs = kPrcs;
    mc.cg_fabrics = kCgFabrics;
    mc.tenancy = Tenancy::kArbitrated;
    mc.interconnect = InterconnectParams::linear_chain(p.cores, p.chain ? 1 : 0);
    machine = std::make_unique<Machine>(w.library, mc);
    for (unsigned i = 0; i < p.cores; ++i) {
      TenantPolicy policy;
      policy.share = TenantShare::kWeighted;
      policy.weight = 1;
      Task task;
      task.name = core_name(i);
      const FabricArbiter::Registration reg =
          machine->register_tenant(task.name, policy);
      task.rts = &machine->add_rts(reg.id);
      if (ledger != nullptr) {
        timed.push_back(
            std::make_unique<TimingRts>(*task.rts, ledger, kHeuristicSpans));
        task.rts = timed.back().get();
      }
      task.trace = &w.traces[i];
      task.tenant = reg.id;
      cores[i].tasks.push_back(std::move(task));
    }
  }
  PointOutcome out;
  {
    Span span(ledger, "sim.run");
    CmpParams params;
    params.fabric = &machine->fabric();
    out.run = run_cmp(cores, machine->interconnect(), &machine->arbiter(),
                      params);
  }
  Span span(ledger, "sim.machine");
  for (const CmpCoreResult& cr : out.run.cores) {
    for (const MultiTenantTaskResult& t : cr.run.tasks) {
      out.blocks += t.run.block_cycles.size();
      for (const std::uint64_t e : t.run.impl_executions) out.kexec += e;
    }
  }
  for (std::size_t i = 0; i < machine->num_rts(); ++i) {
    out.triggers += machine->mrts(i).run_stats().triggers;
    out.profit_evals += machine->mrts(i).run_stats().profit_evaluations;
  }
  out.reconfig = machine->fabric().reconfig_stats();
  timed.clear();
  machine.reset();
  return out;
}

Cycles total_port_wait(const CmpResult& r) {
  Cycles c = 0;
  for (const CmpCoreResult& cr : r.cores) c += cr.port_wait_cycles;
  return c;
}

Cycles total_interconnect(const CmpResult& r) {
  Cycles c = 0;
  for (const CmpCoreResult& cr : r.cores) c += cr.interconnect_cycles;
  return c;
}

/// Fig. 15 golden: every committed row re-run at the default seed must
/// reproduce total_cycles, blocks, interconnect and port-wait cycles.
void verify_fig15_golden(const Options& options, Result& result) {
  std::string csv;
  const std::string path = options.root + "/tests/golden/fig15_cmp_scaling.csv";
  ++result.attempted;
  if (!read_file(path, &csv)) {
    result.fail("golden fig15: cannot read " + path);
    return;
  }
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    const std::vector<std::string> f = split_csv(line);
    if (f.size() < 9) continue;
    const Point p{f[0] == "chain", static_cast<unsigned>(std::stoul(f[1]))};
    ++result.attempted;
    const PointOutcome out = run_point(p, kDefaultSeedBase, nullptr);
    if (std::to_string(out.run.total_cycles) != f[2] ||
        std::to_string(out.blocks) != f[3] ||
        std::to_string(total_interconnect(out.run)) != f[7] ||
        std::to_string(total_port_wait(out.run)) != f[8]) {
      result.fail("golden fig15 " + point_name(p) + ": total_cycles " +
                  std::to_string(out.run.total_cycles) + " (expected " +
                  f[2] + ")");
    }
  }
}

}  // namespace

CmpWorkload generate_cmp_workload(unsigned cores, std::uint64_t seed_base) {
  CmpWorkload w;
  std::vector<KernelId> kernels;
  for (unsigned i = 0; i < cores; ++i) {
    const std::string name = core_name(i);
    IseBuildSpec spec;
    spec.kernel_name = name;
    spec.sw_latency = 700;
    spec.control_fraction = 0.4;
    spec.fg_data_path_names = {name + "_ctrl_fg", name + "_dp_fg"};
    spec.cg_data_path_names = {name + "_mac_cg"};
    spec.fg_control_dps = 1;
    spec.cg_data_dps = 1;
    kernels.push_back(build_kernel_ises(w.library, spec));
  }
  w.traces.resize(cores);
  for (unsigned i = 0; i < cores; ++i) {
    Rng rng(seed_base + i);
    for (unsigned b = 0; b < kCmpBlocksPerCore; ++b) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, /*macroblocks=*/400,
          {{kernels[i], 8.0, 25, 0.1}}, /*entry_gap=*/200, /*tail_gap=*/200,
          rng);
      stamp_programmed_trigger(inst, w.library);
      w.traces[i].blocks.push_back(std::move(inst));
    }
  }
  return w;
}

Result run_cmp_scaleout(const Options& options) {
  Result result;
  Ledger ledger(Clock::now());
  const std::uint64_t first_base = kDefaultSeedBase + 1000 * options.seed;

  // Set-up: the first pass's workload generation on its own (the measured
  // passes regenerate per point, as fig15 does).
  std::uint64_t blocks = 0;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    blocks = 0;
    for (const Point& p : kPoints) {
      const CmpWorkload w = generate_cmp_workload(p.cores, first_base);
      for (const ApplicationTrace& t : w.traces) blocks += t.blocks.size();
    }
    return seconds_between(t0, Clock::now());
  };
  std::vector<double> setup_times;
  for (int i = 0; i < kSetupBefore; ++i) setup_times.push_back(set_up());

  std::vector<PointOutcome> reference;  // first pass
  BestOf best;
  std::uint64_t pass_index = 0;

  const PhaseStats phase = measure(options, result, ledger, [&](Ledger* led) {
    const std::uint64_t base = first_base + 1000 * pass_index++;
    for (std::size_t i = 0; i < std::size(kPoints); ++i) {
      const Clock::time_point t0 = Clock::now();
      PointOutcome out = run_point(kPoints[i], base, led);
      best.record(i, seconds_between(t0, Clock::now()), out.kexec);
      ++result.attempted;
      if (reference.size() < std::size(kPoints)) {
        reference.push_back(std::move(out));
      }
    }
  });
  // Peak RSS of the set-up and measured phase, before the checks below.
  result.e2e("peak_rss_mb", self_peak_rss_mb(), "MB");

  if (options.trace) {
    const auto totals = ledger.totals();
    const double passes = static_cast<double>(phase.passes);
    add_span_seconds(result, totals, passes,
                     {{"workload.gen_s", "workload.gen"},
                      {"sim.machine_s", "sim.machine"},
                      {"sim.self_s", "sim.run"},
                      {"rts.trigger_s.heuristic", "rts.trigger.heuristic"},
                      {"rts.exec_s", "rts.exec"},
                      {"rts.block_end_s", "rts.block_end"}});
    std::uint64_t kexec_pass = 0, triggers = 0, evals = 0, fg = 0, cg = 0,
                  cancelled = 0;
    Cycles port_wait = 0, interconnect = 0;
    for (const PointOutcome& o : reference) {
      kexec_pass += o.kexec;
      triggers += o.triggers;
      evals += o.profit_evals;
      fg += o.reconfig.fg_loads;
      cg += o.reconfig.cg_loads;
      cancelled += o.reconfig.cancelled_loads;
      port_wait += total_port_wait(o.run);
      interconnect += total_interconnect(o.run);
    }
    result.layers["workload.blocks"] = static_cast<double>(blocks);
    result.layers["rts.kexec"] = static_cast<double>(kexec_pass);
    result.layers["rts.triggers"] = static_cast<double>(triggers);
    result.layers["rts.profit_evals"] = static_cast<double>(evals);
    result.layers["arch.fg_loads"] = static_cast<double>(fg);
    result.layers["arch.cg_loads"] = static_cast<double>(cg);
    result.layers["arch.cancelled_loads"] = static_cast<double>(cancelled);
    const double loads = static_cast<double>(fg + cg);
    result.layers["arch.load_useful_ratio"] =
        loads + static_cast<double>(cancelled) > 0.0
            ? loads / (loads + static_cast<double>(cancelled))
            : 0.0;
    result.layers["cmp.port_wait_cycles"] = static_cast<double>(port_wait);
    result.layers["cmp.interconnect_cycles"] =
        static_cast<double>(interconnect);
    write_span_file(options, ledger);
  } else {
    best.report(result);
  }

  // Exact repeat and oracle on a sampled first-pass point: the same inputs
  // again, then through the plain interpreter and per-event loop.
  const std::size_t sample = options.seed % std::size(kPoints);
  const Point& p = kPoints[sample];
  ++result.attempted;
  const PointOutcome again = run_point(p, first_base, nullptr);
  if (!same_cmp(again.run, reference[sample].run) ||
      !same_reconfig(again.reconfig, reference[sample].reconfig)) {
    result.fail("repeat " + point_name(p) +
                ": result or simulated counts differ from the first pass");
  }
  ++result.attempted;
  set_fastpath_enabled(false);
  const PointOutcome oracle = run_point(p, first_base, nullptr);
  set_fastpath_enabled(true);
  if (!same_cmp(oracle.run, reference[sample].run)) {
    result.fail("oracle " + point_name(p) +
                ": fast path differs from the plain interpreter");
  }
  verify_fig15_golden(options, result);
  for (int i = 0; i < kSetupAfter; ++i) setup_times.push_back(set_up());
  result.e2e("setup_s", median(setup_times), "s");
  return result;
}

}  // namespace perfbench
