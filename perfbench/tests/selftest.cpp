// Wrapper self-test: the timing RuntimeSystem wrapper (src/timing_rts.h)
// must leave the simulated program untouched. For every run-time system
// the benchmark wraps, a wrapped run must give the same AppRunResult /
// CmpResult as the bare system and, with a flight recorder attached, the
// same JSONL trace bytes — with the fast paths on and off. Exit code 0
// when every check passes, 1 otherwise.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "checks.h"
#include "cmp_workload.h"
#include "ledger.h"
#include "sim/machine.h"
#include "timing_rts.h"
#include "util/counters.h"
#include "util/fastpath.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace {

using namespace mrts;
using namespace perfbench;

int g_checks = 0;
int g_failures = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

/// Builds one fresh run-time system of kind \p kind on its own fabric.
std::unique_ptr<RuntimeSystem> make_system(const std::string& kind,
                                           const H264Application& app,
                                           const std::vector<BlockProfile>& profile,
                                           unsigned prcs, unsigned cg,
                                           std::unique_ptr<Machine>* machine) {
  if (kind == "rispp") return std::make_unique<RisppRts>(app.library, cg, prcs);
  if (kind == "morpheus4s") {
    return std::make_unique<Morpheus4sRts>(app.library, cg, prcs, profile);
  }
  if (kind == "offline_optimal") {
    return std::make_unique<OfflineOptimalRts>(app.library, cg, prcs, profile);
  }
  MachineConfig mc;
  mc.prcs = prcs;
  mc.cg_fabrics = cg;
  *machine = std::make_unique<Machine>(app.library, mc);
  MRtsConfig config;
  config.use_optimal_selector = kind == "mrts_optimal";
  (*machine)->add_rts(config);
  return nullptr;
}

void check_h264(bool fastpath) {
  set_fastpath_enabled(fastpath);
  H264AppParams params;
  params.frames = 4;
  const H264Application app = build_h264_application(params);
  const std::vector<BlockProfile> profile =
      profile_application(app.trace, app.library);
  const char* kinds[] = {"mrts_heuristic", "mrts_optimal", "rispp",
                         "morpheus4s", "offline_optimal"};
  const std::pair<unsigned, unsigned> points[] = {{2, 2}, {4, 0}, {0, 3},
                                                  {6, 3}};
  for (const char* kind : kinds) {
    for (const auto& [prcs, cg] : points) {
      const std::string what = std::string(fastpath ? "fast " : "plain ") +
                               kind + " " + std::to_string(prcs) + "x" +
                               std::to_string(cg);
      std::unique_ptr<Machine> m1, m2;
      std::unique_ptr<RuntimeSystem> b1 =
          make_system(kind, app, profile, prcs, cg, &m1);
      std::unique_ptr<RuntimeSystem> b2 =
          make_system(kind, app, profile, prcs, cg, &m2);
      RuntimeSystem& bare = b1 ? *b1 : m1->rts(0);
      RuntimeSystem& inner = b2 ? *b2 : m2->rts(0);

      // Traced (recorder + counters on both) so the trace bytes compare.
      TraceRecorder rec_bare, rec_wrapped;
      CounterRegistry ctr_bare, ctr_wrapped;
      bare.attach_observability(&rec_bare, &ctr_bare);
      Ledger ledger(Clock::now());
      TimingRts wrapped(inner, &ledger, kHeuristicSpans);
      wrapped.attach_observability(&rec_wrapped, &ctr_wrapped);

      const AppRunResult r1 = run_application(bare, app.trace, &rec_bare);
      const AppRunResult r2 =
          run_application(wrapped, app.trace, &rec_wrapped);
      check(same_run(r1, r2), what + ": AppRunResult");
      std::ostringstream j1, j2;
      write_trace_jsonl(j1, rec_bare.events(), &app.library);
      write_trace_jsonl(j2, rec_wrapped.events(), &app.library);
      check(j1.str() == j2.str(), what + ": JSONL trace bytes");
      check(ctr_bare.counters() == ctr_wrapped.counters(),
            what + ": counters");
      check(wrapped.name() == bare.name(), what + ": name");
      const auto totals = ledger.totals();
      check(totals.count("rts.trigger.heuristic") == 1 &&
                totals.at("rts.trigger.heuristic").calls ==
                    app.trace.blocks.size() &&
                totals.at("rts.block_end").calls == app.trace.blocks.size(),
            what + ": one trigger and block-end span per block");
      if (fastpath) {
        check(totals.count("rts.exec") == 1 &&
                  totals.at("rts.exec").calls == app.trace.blocks.size(),
              what + ": one execute_events span per block");
      }

      // Untraced: the plain run must match the traced one too.
      bare.attach_observability(nullptr, nullptr);
      wrapped.attach_observability(nullptr, nullptr);
      check(same_run(run_application(bare, app.trace),
                     run_application(wrapped, app.trace)),
            what + ": untraced AppRunResult");
    }
  }
  set_fastpath_enabled(true);
}

CmpResult run_cmp_point(unsigned n, bool chain, bool wrap,
                        std::vector<std::string>* jsonl) {
  const CmpWorkload w = generate_cmp_workload(n, 1000);
  MachineConfig mc;
  mc.cores = n;
  mc.prcs = 4;
  mc.cg_fabrics = 2;
  mc.tenancy = Tenancy::kArbitrated;
  mc.interconnect = InterconnectParams::linear_chain(n, chain ? 1 : 0);
  Machine machine(w.library, mc);
  Ledger ledger(Clock::now());
  std::vector<std::unique_ptr<TimingRts>> timed;
  std::vector<std::unique_ptr<TraceRecorder>> recorders;
  std::vector<CmpCore> cores(n);
  for (unsigned i = 0; i < n; ++i) {
    TenantPolicy policy;
    policy.share = TenantShare::kWeighted;
    policy.weight = 1;
    Task task;
    task.name = "C";  // appended: GCC 12 -Wrestrict false positive on "C" + s
    task.name += std::to_string(i);
    const auto reg = machine.register_tenant(task.name, policy);
    task.rts = &machine.add_rts(reg.id);
    if (wrap) {
      timed.push_back(
          std::make_unique<TimingRts>(*task.rts, &ledger, kHeuristicSpans));
      task.rts = timed.back().get();
    }
    recorders.push_back(std::make_unique<TraceRecorder>());
    task.rts->attach_observability(recorders.back().get(), nullptr);
    task.recorder = recorders.back().get();
    task.trace = &w.traces[i];
    task.tenant = reg.id;
    cores[i].tasks.push_back(std::move(task));
  }
  CmpParams params;
  params.fabric = &machine.fabric();
  const CmpResult r =
      run_cmp(cores, machine.interconnect(), &machine.arbiter(), params);
  for (const auto& rec : recorders) {
    std::ostringstream os;
    write_trace_jsonl(os, rec->events(), &w.library);
    jsonl->push_back(os.str());
  }
  return r;
}

void check_cmp() {
  for (const bool chain : {false, true}) {
    for (const unsigned n : {1u, 4u, 16u}) {
      const std::string what =
          std::string(chain ? "chain/" : "flat/") + std::to_string(n);
      std::vector<std::string> t1, t2;
      const CmpResult r1 = run_cmp_point(n, chain, false, &t1);
      const CmpResult r2 = run_cmp_point(n, chain, true, &t2);
      check(same_cmp(r1, r2), "cmp " + what + ": CmpResult");
      check(t1 == t2, "cmp " + what + ": per-core JSONL trace bytes");
    }
  }
}

}  // namespace

int main() {
  check_h264(true);
  check_h264(false);
  check_cmp();
  std::printf("perfbench self-test: %d checks, %d failed\n", g_checks,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
