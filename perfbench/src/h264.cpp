// The two H.264 workloads: h264_sweep (the fig8/fig9 fabric grid under mRTS
// and every baseline, recorder off) and h264_flight_recorder (the traced,
// reported, checkpointed `mrts_cli run` path at a few fabric points).

#include <cstdio>
#include <memory>
#include <sstream>

#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "checks.h"
#include "obs/report_io.h"
#include "obs/run_report.h"
#include "report.h"
#include "rts/snapshot.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "timing_rts.h"
#include "util/counters.h"
#include "util/fastpath.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace perfbench {
namespace {

using namespace mrts;

/// H264AppParams' default seed. A run builds kTraces encoder traces from
/// content seeds kDefaultH264Seed + kTraces * seed + j; sweep point i runs
/// trace i % kTraces, and every flight-recorder point runs every trace. One
/// short trace's work swings by +-10% with its content seed, so a run
/// averages over many.
constexpr std::uint64_t kDefaultH264Seed = 0xC0FFEE;
constexpr unsigned kTraces = 16;
/// Frames per trace: 4 CIF frames keep one trace's events within a core's
/// private L2, away from the shared L3 that other tenants of a host thrash.
constexpr unsigned kFrames = 4;
constexpr unsigned kFig8Frames = 16;        ///< the fig8 golden's input
constexpr unsigned kGoldenTraceFrames = 4;  ///< `mrts_cli run h264 2 2 4`
/// Checkpoint grid of the flight-recorder legs (absolute cycles): a 4-frame
/// run spans 15-25 M cycles, so each leg builds a handful of snapshots.
constexpr Cycles kCheckpointEvery = 4'000'000;

struct H264Inputs {
  H264Application app;
  std::vector<BlockProfile> profile;
};

H264Inputs make_inputs(std::uint64_t seed, unsigned frames, Ledger* ledger) {
  H264AppParams params;
  params.frames = frames;
  params.seed = seed;
  H264Inputs in;
  {
    Span span(ledger, "workload.gen");
    in.app = build_h264_application(params);
  }
  {
    Span span(ledger, "sim.profile");
    in.profile = profile_application(in.app.trace, in.app.library);
  }
  return in;
}

/// One set-up of the h264 workloads: builds the run's kTraces input sets
/// into \p sets (replacing what it held, so one generation of inputs is
/// alive at a time). Returns its host time.
double set_up(const Options& options, Ledger* ledger,
              std::vector<H264Inputs>* sets) {
  sets->clear();
  const Clock::time_point t0 = Clock::now();
  for (unsigned j = 0; j < kTraces; ++j) {
    sets->push_back(make_inputs(kDefaultH264Seed + kTraces * options.seed + j,
                                kFrames, ledger));
  }
  return seconds_between(t0, Clock::now());
}

/// The set-ups before the measured phase; the last one's inputs stay.
std::vector<H264Inputs> set_up_before(const Options& options, Ledger& ledger,
                                      std::vector<double>* times) {
  std::vector<H264Inputs> sets;
  for (int i = 0; i < kSetupBefore; ++i) {
    times->push_back(set_up(options, options.trace ? &ledger : nullptr, &sets));
  }
  return sets;
}

/// The set-ups after the measured phase (reusing \p sets' storage), then
/// setup_s, the per-set-up generation/profile times and the block count.
void set_up_after(const Options& options, Result& result, Ledger& ledger,
                  std::vector<H264Inputs>& sets, std::vector<double> times) {
  std::size_t blocks = 0;
  for (const H264Inputs& in : sets) blocks += in.app.trace.blocks.size();
  for (int i = 0; i < kSetupAfter; ++i) {
    times.push_back(set_up(options, options.trace ? &ledger : nullptr, &sets));
  }
  result.e2e("setup_s", median(times), "s");
  add_span_seconds(result, ledger.totals(), kSetupBefore + kSetupAfter,
                   {{"workload.gen_s", "workload.gen"},
                    {"sim.profile_s", "sim.profile"}});
  result.layers["workload.blocks"] = static_cast<double>(blocks);
}

enum class Leg { kHeuristic, kOptimal, kRispp, kMorpheus, kOffline };
constexpr Leg kSweepLegs[] = {Leg::kHeuristic, Leg::kOptimal, Leg::kRispp,
                              Leg::kMorpheus, Leg::kOffline};

const char* leg_name(Leg leg) {
  switch (leg) {
    case Leg::kHeuristic: return "mrts_heuristic";
    case Leg::kOptimal: return "mrts_optimal";
    case Leg::kRispp: return "rispp";
    case Leg::kMorpheus: return "morpheus4s";
    case Leg::kOffline: return "offline_optimal";
  }
  return "?";
}

std::string point_name(const FabricCombination& p, Leg leg) {
  return std::to_string(p.prcs) + "x" + std::to_string(p.cg) + "/" +
         leg_name(leg);
}

struct LegOutcome {
  AppRunResult run;
  MRtsRunStats stats;     ///< mRTS legs only
  ReconfigStats reconfig; ///< mRTS legs only
};

/// One full-application run on a freshly built system (a private-fabric
/// Machine for the mRTS legs, the baseline's own fabric otherwise).
LegOutcome run_leg(const H264Inputs& in, const FabricCombination& p, Leg leg,
                   Ledger* ledger) {
  const IseLibrary& lib = in.app.library;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<RuntimeSystem> baseline;
  RuntimeSystem* rts = nullptr;
  {
    Span span(ledger, "sim.machine");
    switch (leg) {
      case Leg::kHeuristic:
      case Leg::kOptimal: {
        MachineConfig mc;
        mc.prcs = p.prcs;
        mc.cg_fabrics = p.cg;
        machine = std::make_unique<Machine>(lib, mc);
        MRtsConfig config;
        config.use_optimal_selector = leg == Leg::kOptimal;
        rts = &machine->add_rts(config);
        break;
      }
      case Leg::kRispp:
        baseline = std::make_unique<RisppRts>(lib, p.cg, p.prcs);
        break;
      case Leg::kMorpheus:
        baseline = std::make_unique<Morpheus4sRts>(lib, p.cg, p.prcs,
                                                   in.profile);
        break;
      case Leg::kOffline:
        baseline = std::make_unique<OfflineOptimalRts>(lib, p.cg, p.prcs,
                                                       in.profile);
        break;
    }
    if (baseline) rts = baseline.get();
  }
  LegOutcome out;
  if (ledger != nullptr) {
    const RtsSpanNames names = leg == Leg::kHeuristic ? kHeuristicSpans
                               : leg == Leg::kOptimal ? kOptimalSpans
                                                      : kBaselineSpans;
    TimingRts timed(*rts, ledger, names);
    Span span(ledger, "sim.run");
    out.run = run_application(timed, in.app.trace);
  } else {
    out.run = run_application(*rts, in.app.trace);
  }
  Span span(ledger, "sim.machine");
  if (machine) {
    out.stats = machine->mrts(0).run_stats();
    out.reconfig = machine->mrts(0).fabric().reconfig_stats();
  }
  machine.reset();
  baseline.reset();
  return out;
}

std::vector<FabricCombination> sweep_points() {
  std::vector<FabricCombination> out;
  for (const FabricCombination& c : fabric_sweep(6, 3)) {
    if (!c.risc_only()) out.push_back(c);  // RISC mode: nothing to select
  }
  return out;
}

/// Per-pass simulated counts of the mRTS legs (identical on every pass).
struct SweepCounts {
  std::uint64_t kexec_mrts = 0;
  std::uint64_t triggers = 0;
  std::uint64_t profit_evals = 0;
  std::uint64_t fg_loads = 0;
  std::uint64_t cg_loads = 0;
  std::uint64_t cancelled_loads = 0;
};

void add_counts(Result& result, const SweepCounts& c) {
  result.layers["rts.kexec"] = static_cast<double>(c.kexec_mrts);
  result.layers["rts.triggers"] = static_cast<double>(c.triggers);
  result.layers["rts.profit_evals"] = static_cast<double>(c.profit_evals);
  result.layers["arch.fg_loads"] = static_cast<double>(c.fg_loads);
  result.layers["arch.cg_loads"] = static_cast<double>(c.cg_loads);
  result.layers["arch.cancelled_loads"] =
      static_cast<double>(c.cancelled_loads);
  const double loads = static_cast<double>(c.fg_loads + c.cg_loads);
  const double attempts = loads + static_cast<double>(c.cancelled_loads);
  result.layers["arch.load_useful_ratio"] =
      attempts > 0.0 ? loads / attempts : 0.0;
}

/// Fig. 8 golden: every committed row re-run at the default seed and frame
/// count must reproduce the four cycle columns exactly.
void verify_fig8_golden(const Options& options, Result& result) {
  std::string csv;
  const std::string path =
      options.root + "/tests/golden/fig8_state_of_the_art.csv";
  ++result.attempted;
  if (!read_file(path, &csv)) {
    result.fail("golden fig8: cannot read " + path);
    return;
  }
  const H264Inputs in = make_inputs(kDefaultH264Seed, kFig8Frames, nullptr);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    const std::vector<std::string> f = split_csv(line);
    if (f.size() < 6) continue;
    FabricCombination p;
    p.prcs = static_cast<unsigned>(std::stoul(f[0]));
    p.cg = static_cast<unsigned>(std::stoul(f[1]));
    const std::pair<Leg, const std::string*> columns[] = {
        {Leg::kRispp, &f[2]},
        {Leg::kOffline, &f[3]},
        {Leg::kMorpheus, &f[4]},
        {Leg::kHeuristic, &f[5]}};
    for (const auto& [leg, expected] : columns) {
      ++result.attempted;
      const Cycles got = run_leg(in, p, leg, nullptr).run.total_cycles;
      if (std::to_string(got) != *expected) {
        result.fail("golden fig8 " + point_name(p, leg) + ": " +
                    std::to_string(got) + " != " + *expected);
      }
    }
  }
}

}  // namespace

Result run_h264_sweep(const Options& options) {
  Result result;
  Ledger ledger(Clock::now());
  std::vector<double> setup_times;
  std::vector<H264Inputs> sets = set_up_before(options, ledger, &setup_times);
  const std::vector<FabricCombination> points = sweep_points();

  std::vector<LegOutcome> reference;  // per (point, leg), first pass
  SweepCounts counts;
  BestOf best;

  const PhaseStats phase = measure(options, result, ledger, [&](Ledger* led) {
    const bool first = reference.empty();
    std::size_t index = 0;
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
      const FabricCombination& p = points[pi];
      for (const Leg leg : kSweepLegs) {
        const Clock::time_point t0 = Clock::now();
        LegOutcome out = run_leg(sets[pi % kTraces], p, leg, led);
        const std::uint64_t n = executions(out.run);
        best.record(index, seconds_between(t0, Clock::now()), n);
        ++result.attempted;
        if (first) {
          if (leg == Leg::kHeuristic || leg == Leg::kOptimal) {
            counts.kexec_mrts += n;
            counts.triggers += out.stats.triggers;
            counts.profit_evals += out.stats.profit_evaluations;
            counts.fg_loads += out.reconfig.fg_loads;
            counts.cg_loads += out.reconfig.cg_loads;
            counts.cancelled_loads += out.reconfig.cancelled_loads;
          }
          reference.push_back(std::move(out));
        } else if (!same_run(out.run, reference[index].run) ||
                   !same_reconfig(out.reconfig, reference[index].reconfig) ||
                   out.stats.profit_evaluations !=
                       reference[index].stats.profit_evaluations) {
          result.fail("repeat " + point_name(p, leg) +
                      ": result or simulated counts differ from the first "
                      "pass");
        }
        ++index;
      }
    }
  });
  // Peak RSS of the set-up and measured phase, before the checks below.
  result.e2e("peak_rss_mb", self_peak_rss_mb(), "MB");

  if (options.trace) {
    const auto totals = ledger.totals();
    const double passes = static_cast<double>(phase.passes);
    add_span_seconds(result, totals, passes,
                     {{"sim.machine_s", "sim.machine"},
                      {"sim.self_s", "sim.run"},
                      {"rts.trigger_s.heuristic", "rts.trigger.heuristic"},
                      {"rts.trigger_s.optimal", "rts.trigger.optimal"},
                      {"rts.exec_s", "rts.exec"},
                      {"rts.block_end_s", "rts.block_end"},
                      {"baselines.trigger_s", "baselines.trigger"},
                      {"baselines.exec_s", "baselines.exec"},
                      {"baselines.block_end_s", "baselines.block_end"}});
    add_counts(result, counts);
    write_span_file(options, ledger);
  } else {
    best.report(result);
  }

  // Oracle: one sampled (point, leg) through the plain interpreter and
  // per-event loop must reproduce the measured result exactly.
  const std::size_t legs = std::size(kSweepLegs);
  const std::size_t sample = options.seed % reference.size();
  const FabricCombination& p = points[sample / legs];
  const Leg leg = kSweepLegs[sample % legs];
  ++result.attempted;
  set_fastpath_enabled(false);
  const LegOutcome oracle =
      run_leg(sets[(sample / legs) % kTraces], p, leg, nullptr);
  set_fastpath_enabled(true);
  if (!same_run(oracle.run, reference[sample].run)) {
    result.fail("oracle " + point_name(p, leg) +
                ": fast path differs from the plain interpreter");
  }
  verify_fig8_golden(options, result);
  set_up_after(options, result, ledger, sets, std::move(setup_times));
  return result;
}

namespace {

const FabricCombination kRecorderPoints[] = {{2, 2}, {4, 2}, {6, 3}, {1, 1}};
/// One operation per (point, trace).
constexpr std::size_t kRecorderOps = std::size(kRecorderPoints) * kTraces;

struct TracedLeg {
  AppRunResult run;
  std::string report_json;
  std::string jsonl;  ///< kept only when asked for
  std::size_t events = 0;
  std::size_t jsonl_bytes = 0;
  std::size_t snapshot_bytes = 0;
};

/// What `mrts_cli run h264 <prcs> <cg> <frames> --trace <f>.jsonl --report
/// <r>.json --checkpoint-every N` does for its mRTS leg, in memory: the
/// recorder and counters attached, a snapshot built at every N-cycle
/// boundary (0 = none), the trace analyzed into a RunReport JSON and
/// exported as JSON Lines.
TracedLeg run_traced_leg(const H264Inputs& in, const FabricCombination& p,
                         unsigned frames, Cycles checkpoint_every,
                         bool keep_jsonl, Ledger* ledger) {
  TraceRecorder recorder;
  CounterRegistry counters;
  std::unique_ptr<Machine> machine;
  {
    Span span(ledger, "sim.machine");
    MachineConfig mc;
    mc.prcs = p.prcs;
    mc.cg_fabrics = p.cg;
    machine = std::make_unique<Machine>(in.app.library, mc);
    machine->add_rts();
    machine->attach_observability(&recorder, &counters);
  }
  MRts& mrts = machine->mrts(0);
  TimingRts timed(mrts, ledger, kHeuristicSpans);
  RuntimeSystem& rts =
      ledger != nullptr ? static_cast<RuntimeSystem&>(timed) : mrts;

  CheckpointMeta meta;
  meta.app = "h264";
  meta.prcs = p.prcs;
  meta.cg = p.cg;
  meta.frames = frames;
  meta.checkpoint_every = checkpoint_every;
  TracedLeg out;
  AppRunProgress progress;
  std::uint64_t sequence = 0;
  while (true) {
    const Cycles stop =
        checkpoint_every == 0
            ? kNeverCycles
            : (progress.cursor / checkpoint_every + 1) * checkpoint_every;
    bool done = false;
    {
      Span span(ledger, "sim.run");
      done = run_application_portion(rts, in.app.trace, progress, &recorder,
                                     stop);
    }
    if (done) break;
    ++sequence;
    recorder.record({TraceEventKind::kSnapshotSave, kTrackApp,
                     progress.cursor, 0, static_cast<std::uint32_t>(sequence),
                     0, 0.0, 0.0});
    CheckpointMeta snap_meta = meta;
    snap_meta.sequence = sequence;
    Span span(ledger, "snapshot.build");
    out.snapshot_bytes +=
        build_snapshot(snap_meta, mrts, progress, &recorder, &counters).size();
  }
  out.run = progress.partial;
  out.events = recorder.size();
  {
    Span span(ledger, "obs.analyze");
    obs::AnalysisConfig config;
    config.num_prcs = p.prcs;
    config.num_cg = p.cg;
    const obs::RunReport report = obs::analyze_trace(recorder.events(), config);
    Span report_span(ledger, "obs.report");
    std::ostringstream os;
    obs::write_report_json(os, report);
    out.report_json = os.str();
  }
  {
    Span span(ledger, "trace.export");
    std::ostringstream os;
    write_trace_jsonl(os, recorder.events(), &in.app.library);
    out.jsonl_bytes = static_cast<std::size_t>(os.tellp());
    if (keep_jsonl) out.jsonl = os.str();
  }
  Span span(ledger, "sim.machine");
  machine.reset();
  return out;
}

bool same_traced(const TracedLeg& a, const TracedLeg& b) {
  return same_run(a.run, b.run) && a.report_json == b.report_json &&
         a.events == b.events && a.jsonl_bytes == b.jsonl_bytes &&
         a.snapshot_bytes == b.snapshot_bytes &&
         (a.jsonl.empty() || b.jsonl.empty() || a.jsonl == b.jsonl);
}

/// `mrts_cli run h264 2 2 4 --trace t.jsonl` piped through `mrts_cli
/// trace-analyze t.jsonl --out r.json` must give the committed bytes.
void verify_trace_golden(const Options& options, Result& result) {
  ++result.attempted;
  std::string golden;
  const std::string path =
      options.root + "/tests/golden/trace_analyze_h264_2x2.json";
  if (!read_file(path, &golden)) {
    result.fail("golden trace_analyze: cannot read " + path);
    return;
  }
  const H264Inputs in =
      make_inputs(kDefaultH264Seed, kGoldenTraceFrames, nullptr);
  const TracedLeg leg =
      run_traced_leg(in, {2, 2}, kGoldenTraceFrames, 0, true, nullptr);
  std::istringstream jsonl(leg.jsonl);
  const ParsedTrace parsed = parse_trace_jsonl(jsonl);
  std::ostringstream os;
  obs::write_report_json(os, obs::analyze_trace(parsed.events));
  if (!parsed.ok() || os.str() != golden) {
    result.fail("golden trace_analyze_h264_2x2.json: report bytes differ");
  }
}

}  // namespace

Result run_h264_flight_recorder(const Options& options) {
  Result result;
  Ledger ledger(Clock::now());
  std::vector<double> setup_times;
  std::vector<H264Inputs> sets = set_up_before(options, ledger, &setup_times);

  std::vector<TracedLeg> reference;  // per point, first pass
  BestOf best;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  SweepCounts counts;
  std::size_t events = 0, jsonl_bytes = 0, snapshot_bytes = 0;

  const PhaseStats phase = measure(options, result, ledger, [&](Ledger* led) {
    const bool first = reference.empty();
    for (std::size_t index = 0; index < kRecorderOps; ++index) {
      const FabricCombination& p = kRecorderPoints[index / kTraces];
      const H264Inputs& in = sets[index % kTraces];
      const Clock::time_point t0 = Clock::now();
      TracedLeg leg =
          run_traced_leg(in, p, kFrames, kCheckpointEvery, first, led);
      const double wall = seconds_between(t0, Clock::now());
      best.record(index, wall, executions(leg.run));
      ++result.attempted;
      if (options.trace) {
        // Reference for trace.overhead_x: the same point with the recorder
        // off (traced runs only; kexec_per_s counts the traced legs). Its
        // layers stay out of the per-layer totals, and the ratio comes from
        // the half without the ledger.
        Span span(led, "reference.untraced");
        const Clock::time_point u0 = Clock::now();
        run_leg(in, p, Leg::kHeuristic, nullptr);
        if (led == nullptr) {
          traced_wall += wall;
          untraced_wall += seconds_between(u0, Clock::now());
        }
      }
      if (first) {
        counts.kexec_mrts += executions(leg.run);
        events += leg.events;
        jsonl_bytes += leg.jsonl_bytes;
        snapshot_bytes += leg.snapshot_bytes;
        reference.push_back(std::move(leg));
      } else if (!same_traced(leg, reference[index])) {
        result.fail("repeat " + point_name(p, Leg::kHeuristic) +
                    ": traced result, report or trace differs from the first "
                    "pass");
      }
    }
  });
  // Peak RSS of the set-up and measured phase, before the checks below.
  result.e2e("peak_rss_mb", self_peak_rss_mb(), "MB");

  if (options.trace) {
    const auto totals = ledger.totals();
    const double passes = static_cast<double>(phase.passes);
    add_span_seconds(result, totals, passes,
                     {{"sim.machine_s", "sim.machine"},
                      {"sim.self_s", "sim.run"},
                      {"rts.trigger_s.heuristic", "rts.trigger.heuristic"},
                      {"rts.exec_s", "rts.exec"},
                      {"rts.block_end_s", "rts.block_end"},
                      {"snapshot.build_s", "snapshot.build"},
                      {"obs.analyze_s", "obs.analyze"},
                      {"obs.report_s", "obs.report"},
                      {"trace.export_s", "trace.export"}});
    add_counts(result, counts);
    result.layers["trace.events"] = static_cast<double>(events);
    result.layers["trace.bytes"] = static_cast<double>(jsonl_bytes);
    result.layers["snapshot.bytes"] = static_cast<double>(snapshot_bytes);
    result.layers["trace.overhead_x"] =
        untraced_wall > 0.0 ? traced_wall / untraced_wall : 0.0;
    write_span_file(options, ledger);
  } else {
    best.report(result);
  }

  // Oracle: one sampled point re-run with the fast paths off must give the
  // same result, report and trace bytes.
  const std::size_t sample = options.seed % kRecorderOps;
  const FabricCombination& p = kRecorderPoints[sample / kTraces];
  ++result.attempted;
  set_fastpath_enabled(false);
  const TracedLeg oracle = run_traced_leg(sets[sample % kTraces], p, kFrames,
                                          kCheckpointEvery, true, nullptr);
  set_fastpath_enabled(true);
  if (!same_traced(oracle, reference[sample])) {
    result.fail("oracle " + point_name(p, Leg::kHeuristic) +
                ": traced fast path differs from the plain interpreter");
  }
  verify_trace_golden(options, result);
  set_up_after(options, result, ledger, sets, std::move(setup_times));
  return result;
}

}  // namespace perfbench
