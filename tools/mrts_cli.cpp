// mrts_cli — command-line driver for the mRTS library.
//
//   mrts_cli info <library.txt>
//       Print the kernels and ISE variants of a library file.
//
//   mrts_cli select <library.txt> <prcs> <cg> <KERNEL=e[,tf,tb]> ...
//       Run one heuristic selection for the given trigger forecast on an
//       idle machine and print the round-by-round trace.
//
//   mrts_cli run <h264|sdr> [prcs] [cg] [frames] [--trace <file>]
//            [--report <file>] [--fault-rate <p>] [--fault-seed <n>]
//            [--max-retries <n>]
//       Run a built-in workload under every run-time system and print the
//       comparison summary. With --trace, the mRTS run records a flight
//       recorder trace: *.jsonl writes JSON Lines, anything else writes
//       Chrome trace-event JSON (load it in Perfetto / chrome://tracing).
//       With --report, the mRTS run's trace is analyzed in memory and the
//       RunReport written to the file (.json / .csv / anything-else =
//       markdown) — works with or without --trace.
//       --fault-rate enables the deterministic fault injector on the mRTS
//       run (arch/fault_model.h): p in [0,1] drives load CRC failures,
//       transient upsets and permanent quarantines; --fault-seed seeds the
//       injector and --max-retries bounds the per-load retry budget.
//       Malformed values (negative/NaN rates, out-of-range seeds) are
//       input errors: exit code 2, never silently clamped.
//       --checkpoint-every N (with --checkpoint <file>) additionally writes
//       a whole-runtime snapshot of the mRTS run every N cycles (absolute
//       grid: at cycles N, 2N, ... — atomically overwriting <file>), so the
//       run can be killed at any point and resumed with `restore`.
//
//   mrts_cli checkpoint <h264|sdr> [prcs] [cg] [frames] --at-cycle <c>
//            --out <file> [--trace ...] [--report ...] [--fault-* ...]
//       Run only the mRTS leg of the comparison up to cycle <c> and write a
//       one-shot whole-runtime snapshot (format mrts.snapshot.v1) to <file>.
//       A run that finishes before <c> is an input error (exit 2) — there is
//       nothing left to checkpoint.
//
//   mrts_cli restore <snapshot>
//       Resume a checkpointed run in a fresh process and finish it. The
//       workload, fabric shape, fault config and observability outputs are
//       reconstructed from the snapshot's meta header; the resumed run is
//       bit-identical to the uninterrupted one — same stdout, same trace
//       file, same report. Truncated/corrupt/wrong-version snapshots are
//       input errors naming the failing byte offset (exit 2), and never
//       partially mutate the runtime.
//
//   mrts_cli run-multi <prcs> <cg> <blocks> <NAME=POLICY[:ARG][@PRIO]> ...
//       Multi-tenant simulation: one synthetic task per spec, every task's
//       MRts bound to one shared fabric behind a FabricArbiter. POLICY is
//       `weighted` (ARG = weight >= 1, default 1), `reserved`
//       (ARG = <prcs>+<cg>, e.g. 2+1) or `best-effort` (no ARG); @PRIO sets
//       the scheduling priority (default 0). Tenants whose reservation does
//       not fit are bounced by admission control and reported as such.
//
//   mrts_cli run-cmp <cores> <prcs> <cg> <blocks> [NAME=POLICY[:ARG][@PRIO] ...]
//       Chip-multiprocessor simulation (sim/cmp.h): <cores> RISC cores, one
//       synthetic task per core, contending for one shared <prcs>+<cg>
//       fabric pool behind a FabricArbiter over the modeled interconnect.
//       Task specs use the run-multi grammar and map to cores in order
//       (spec i runs on core i); cores without a spec default to
//       `core<i>=weighted:1`. More specs than cores is a usage error.
//       --hop-stride <n> places core i at hop distance 1 + i*n (0, the
//       default, is the flat/degenerate topology); --transfers-per-block <n>
//       sets the operand transfers charged per block (default 2).
//
//   mrts_cli trace-summary <trace.jsonl>
//       Validate a JSONL trace and print per-kind event counts plus the
//       span-duration p50/p90/p99.
//
//   mrts_cli trace-analyze <trace.jsonl> [--out <file>]
//       Run the obs/ analysis engine over a saved JSONL trace: cycle
//       accounting, occupancy, reconfiguration critical path and per-tenant
//       latency. Prints the markdown report to stdout, or writes --out
//       (.json / .csv / anything-else = markdown). A malformed trace is an
//       input error naming the first bad line (exit 2), never a crash.
//
//   mrts_cli --help / mrts_cli <verb> --help
//       Print the flag table of every verb (or one verb) and exit 0. The
//       help text is generated from the same CliSpec table that
//       CliSpec::parse walks (util/cli_spec.h), so it cannot drift from
//       what the binary accepts; `run`/`checkpoint` also take --no-bb-cache
//       to disable the simulator fast paths (outputs stay bit-identical).
//
// Every flag takes `--flag V` or `--flag=V`. Exit code 0 on success, 1 on
// usage errors (unknown verb or flag, a flag without its value, a repeated
// flag, missing or trailing positionals), 2 on input/runtime errors
// (malformed or out-of-range numbers, unreadable files, bad content).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mrts.h"
#include "util/cli_spec.h"
#include "util/fastpath.h"
#include "util/parse_number.h"
#include "util/table.h"

namespace {

using namespace mrts;

/// The single source of truth for verbs and flags: `--help` renders this
/// table and CliSpec::parse walks the command line against it, so the two
/// cannot drift (tests/test_cli_spec.cpp pins the contract).
const CliSpec& cli_spec() {
  static const CliSpec spec = [] {
    CliSpec s("mrts_cli", "command-line driver for the mRTS library",
              "exit codes: 0 success, 1 usage error, 2 input error");
    s.add_verb("info", "<library.txt>",
               "print the kernels and ISE variants of a library file");
    s.add_verb("select", "<library.txt> <prcs> <cg> <KERNEL=e[,tf,tb]> ...",
               "run one heuristic selection for the given trigger forecast "
               "on an idle machine");
    const std::vector<CliFlag> shared_run_flags = {
        {"--trace", "<file>",
         "record the mRTS run's flight recorder (.jsonl = JSON Lines, "
         "anything else = Chrome trace-event JSON)"},
        {"--report", "<file>",
         "analyze the mRTS run's trace in memory and write the RunReport "
         "(.json / .csv / anything else = markdown)"},
        {"--fault-rate", "<p>",
         "enable the deterministic fault injector, p in [0,1]"},
        {"--fault-seed", "<n>", "fault-injector seed (default 42)"},
        {"--max-retries", "<n>",
         "per-load retry budget in [0,1000] (default 3)"},
        {"--no-bb-cache", "",
         "disable the decoded basic-block caches and the batched "
         "frame-execution fast path (outputs stay bit-identical)"},
    };
    CliVerb& run = s.add_verb(
        "run", "<h264|sdr> [prcs] [cg] [frames]",
        "run a built-in workload under every run-time system and print the "
        "comparison summary");
    run.flags = shared_run_flags;
    run.flags.push_back(
        {"--checkpoint-every", "<cycles>",
         "write a whole-runtime snapshot every N cycles (needs "
         "--checkpoint)"});
    run.flags.push_back({"--checkpoint", "<file>",
                         "snapshot file for --checkpoint-every (atomically "
                         "overwritten)"});
    CliVerb& checkpoint = s.add_verb(
        "checkpoint", "<h264|sdr> [prcs] [cg] [frames]",
        "run the mRTS leg up to --at-cycle and write a one-shot snapshot");
    checkpoint.flags = shared_run_flags;
    checkpoint.flags.push_back(
        {"--at-cycle", "<c>", "cycle to checkpoint at (required)"});
    checkpoint.flags.push_back(
        {"--out", "<file>", "snapshot output file (required)"});
    s.add_verb("restore", "<snapshot>",
               "resume a checkpointed run in a fresh process and finish it "
               "bit-identically");
    s.add_verb("run-multi", "<prcs> <cg> <blocks> <NAME=POLICY[:ARG][@PRIO]> ...",
               "multi-tenant simulation behind a FabricArbiter; POLICY is "
               "weighted[:W] | reserved:<P>+<C> | best-effort");
    CliVerb& run_cmp = s.add_verb(
        "run-cmp", "<cores> <prcs> <cg> <blocks> [NAME=POLICY[:ARG][@PRIO] ...]",
        "CMP simulation: one task per core sharing one fabric pool over the "
        "modeled interconnect; specs map to cores in order (default "
        "core<i>=weighted:1)");
    run_cmp.flags = {
        {"--hop-stride", "<n>",
         "core i sits 1 + i*n interconnect hops from the fabric (default 0 = "
         "flat topology)"},
        {"--transfers-per-block", "<n>",
         "operand transfers charged per functional block (default 2)"},
    };
    s.add_verb("trace-summary", "<trace.jsonl>",
               "validate a JSONL trace and print per-kind event counts plus "
               "span-duration percentiles");
    CliVerb& analyze = s.add_verb(
        "trace-analyze", "<trace.jsonl>",
        "run the obs/ analysis engine over a saved JSONL trace");
    analyze.flags = {{"--out", "<file>",
                      "write the report to a file (.json / .csv / anything "
                      "else = markdown) instead of stdout"}};
    return s;
  }();
  return spec;
}

int cmd_info(const std::string& path) {
  const IseLibrary lib = load_library(path);
  std::printf("%zu data paths, %zu kernels, %zu ISE variants\n\n",
              lib.data_paths().size(), lib.num_kernels(), lib.num_ises());
  TextTable table({"kernel", "sw cycles", "variant", "PRCs", "CG",
                   "full latency", "speedup", "reconfig [ms]"});
  for (const auto& kernel : lib.kernels()) {
    auto add = [&](IseId id) {
      const IseVariant& v = lib.ise(id);
      table.add_values(
          kernel.name, kernel.sw_latency, v.name, v.fg_units, v.cg_units,
          v.full_latency(), speedup(v.risc_latency(), v.full_latency()),
          format_double(
              cycles_to_ms(v.worst_case_reconfig_cycles(lib.data_paths())),
              3));
    };
    for (IseId id : kernel.ises) add(id);
    if (kernel.has_mono_cg()) add(kernel.mono_cg);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Strict parser for the value part of a `KERNEL=e[,tf,tb]` trigger spec.
/// Every token must parse in full (util/parse_number.h): `1.5x`, `inf`,
/// `nan`, empty tokens and negative counts are input errors (exit 2), never
/// silently truncated the way a bare strtod would.
bool parse_trigger_values(const std::string& text, TriggerEntry* entry) {
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = text.find(',', begin);
    tokens.push_back(text.substr(begin, comma - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (tokens.size() > 3 ||
      !parse_number(tokens[0], &entry->expected_executions) ||
      entry->expected_executions < 0.0) {
    return false;
  }
  return (tokens.size() < 2 ||
          parse_number(tokens[1], &entry->time_to_first)) &&
         (tokens.size() < 3 || parse_number(tokens[2], &entry->time_between));
}

int cmd_select(const std::string& path, unsigned prcs, unsigned cg,
               const std::vector<std::string>& specs) {
  const IseLibrary lib = load_library(path);
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  for (const std::string& spec : specs) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad trigger entry '%s' (expected KERNEL=e[,tf,tb])\n",
                   spec.c_str());
      return 2;
    }
    const KernelId k = lib.find_kernel(spec.substr(0, eq));
    if (k == kInvalidKernel) {
      std::fprintf(stderr, "unknown kernel '%s'\n",
                   spec.substr(0, eq).c_str());
      return 2;
    }
    TriggerEntry entry;
    entry.kernel = k;
    entry.time_to_first = 500;
    entry.time_between = 100;
    if (!parse_trigger_values(spec.substr(eq + 1), &entry)) {
      std::fprintf(stderr,
                   "bad trigger entry '%s' (expected KERNEL=e[,tf,tb] with "
                   "finite non-negative numbers)\n",
                   spec.c_str());
      return 2;
    }
    ti.entries.push_back(entry);
  }

  const HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), prcs, cg, 0);
  std::string trace;
  const SelectionResult result =
      selector.select_with_trace(ti, planner, trace);
  std::printf("%s\n", trace.c_str());
  std::printf("selected %zu ISE(s), total expected profit %.0f cycles, "
              "selection overhead ~%llu cycles\n",
              result.selected.size(), result.total_profit,
              static_cast<unsigned long long>(result.overhead_cycles));
  return 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void print_counters(const CounterRegistry& counters) {
  if (counters.counters().empty() && counters.histograms().empty()) return;
  std::printf("\nmRTS counters:\n");
  TextTable table({"counter", "value"});
  for (const auto& [name, value] : counters.counters()) {
    table.add_values(name, value);
  }
  std::printf("%s", table.render().c_str());
  if (!counters.histograms().empty()) {
    TextTable hist({"histogram", "count", "mean", "min", "max"});
    for (const auto& [name, h] : counters.histograms()) {
      hist.add_values(name, h.count(), format_double(h.mean(), 2),
                      format_double(h.min(), 2), format_double(h.max(), 2));
    }
    std::printf("%s", hist.render().c_str());
  }
}

/// One built-in workload, owning storage selected by build_workload.
struct Workload {
  IseLibrary const* lib = nullptr;
  ApplicationTrace const* trace = nullptr;
  H264Application h264;
  SdrApplication sdr;
};

bool build_workload(const std::string& which, unsigned frames, Workload* w) {
  if (which == "h264") {
    H264AppParams params;
    params.frames = frames;
    w->h264 = build_h264_application(params);
    w->lib = &w->h264.library;
    w->trace = &w->h264.trace;
    return true;
  }
  if (which == "sdr") {
    SdrAppParams params;
    params.bursts = frames;
    w->sdr = build_sdr_application(params);
    w->lib = &w->sdr.library;
    w->trace = &w->sdr.trace;
    return true;
  }
  return false;
}

/// The `run` comparison, shared with `restore`: every run parameter comes
/// from the CheckpointMeta (the `run` verb builds one from its arguments,
/// `restore` decodes one from the snapshot), so a resumed run replays the
/// exact same code path — byte-identical stdout, trace and report. With
/// \p resume set, the mRTS leg continues from the snapshot instead of
/// starting fresh; the (deterministic) baselines simply re-run.
int run_compare(const CheckpointMeta& meta,
                const std::vector<std::uint8_t>* resume) {
  Workload w;
  if (!build_workload(meta.app, meta.frames, &w)) {
    return cli_spec().usage();
  }
  const IseLibrary* lib = w.lib;
  const ApplicationTrace* trace = w.trace;

  RiscOnlyRts risc(*lib);
  const AppRunResult risc_run = run_application(risc, *trace);
  const auto profile = profile_application(*trace, *lib);

  const bool traced = !meta.trace_path.empty();
  // --report needs the event stream too; the recorder stays in memory when
  // only a report was asked for.
  const bool instrument = traced || !meta.report_path.empty();
  TraceRecorder recorder;
  CounterRegistry counters;

  TextTable table({"run-time system", "Mcycles", "speedup"});
  // Every system runs through the uniform RuntimeSystem lifecycle API:
  // attach_observability is a base-interface call (default no-op for systems
  // without instrumentation), so no concrete-type special casing is needed.
  auto report = [&](RuntimeSystem& rts, bool instrument = false) {
    if (instrument) rts.attach_observability(&recorder, &counters);
    const AppRunResult r =
        run_application(rts, *trace, instrument ? &recorder : nullptr);
    table.add_values(r.rts_name, format_mcycles(r.total_cycles),
                     speedup(risc_run.total_cycles, r.total_cycles));
  };
  report(risc);

  MRtsConfig mrts_config;
  mrts_config.fault = meta.fault;  // baselines stay fault-free for comparison
  // Private-tenancy machine (sim/machine.h): performs the legacy
  // `MRts(lib, cg, prcs, config)` construction and owns the attach ordering.
  MachineConfig machine_config;
  machine_config.prcs = meta.prcs;
  machine_config.cg_fabrics = meta.cg;
  Machine machine(*lib, machine_config);
  machine.add_rts(mrts_config);
  MRts& mrts_rts = machine.mrts(0);
  // The mRTS leg runs resumably: restored from the snapshot when resuming,
  // stopped at every absolute N-cycle boundary when checkpointing. The
  // checkpoint grid is a pure function of the cycle cursor, so a run that is
  // killed and restored (even repeatedly) still checkpoints at the same
  // cycles and converges to the same final state.
  if (instrument) machine.attach_observability(&recorder, &counters);
  TraceRecorder* rec = instrument ? &recorder : nullptr;
  CounterRegistry* ctr = instrument ? &counters : nullptr;
  AppRunProgress progress;
  std::uint64_t sequence = 0;
  if (resume != nullptr) {
    apply_snapshot(*resume, mrts_rts, progress, rec, ctr);
    sequence = meta.sequence;
  }
  if (meta.checkpoint_every > 0) {
    while (true) {
      const Cycles stop = (progress.cursor / meta.checkpoint_every + 1) *
                          meta.checkpoint_every;
      if (run_application_portion(mrts_rts, *trace, progress, rec, stop)) {
        break;
      }
      ++sequence;
      // The save marker goes in *before* the image is built so the snapshot
      // contains its own marker: a restore from checkpoint k then replays
      // markers 1..k and the trace stays identical to the uninterrupted run.
      if (rec != nullptr) {
        rec->record({TraceEventKind::kSnapshotSave, kTrackApp, progress.cursor,
                     0, static_cast<std::uint32_t>(sequence), 0, 0.0, 0.0});
      }
      CheckpointMeta snap_meta = meta;
      snap_meta.sequence = sequence;
      const std::vector<std::uint8_t> bytes =
          build_snapshot(snap_meta, mrts_rts, progress, rec, ctr);
      if (!write_snapshot_file(meta.checkpoint_path, bytes)) {
        std::fprintf(stderr, "error: cannot write checkpoint file '%s'\n",
                     meta.checkpoint_path.c_str());
        return 2;
      }
    }
  } else {
    run_application_portion(mrts_rts, *trace, progress, rec);
  }
  table.add_values(progress.partial.rts_name,
                   format_mcycles(progress.partial.total_cycles),
                   speedup(risc_run.total_cycles,
                           progress.partial.total_cycles));

  RisppRts rispp(*lib, meta.cg, meta.prcs);
  report(rispp);
  Morpheus4sRts morpheus(*lib, meta.cg, meta.prcs, profile);
  report(morpheus);
  OfflineOptimalRts offline(*lib, meta.cg, meta.prcs, profile);
  report(offline);

  std::printf("%s on %u PRCs + %u CG fabrics, %u frames/bursts:\n%s",
              meta.app.c_str(), meta.prcs, meta.cg, meta.frames,
              table.render().c_str());

  if (mrts_rts.fault_model() != nullptr) {
    const FaultStats& fs = mrts_rts.fault_model()->stats();
    std::printf(
        "\nfault injection (mRTS run only): seed %llu, %llu fault(s) "
        "injected\n"
        "  load CRC failures %llu, retries %llu, abandoned loads %llu\n"
        "  transient upsets %llu, scrub repairs %llu, quarantined PRCs %llu, "
        "quarantined CG %llu\n",
        static_cast<unsigned long long>(meta.fault.seed),
        static_cast<unsigned long long>(fs.injected),
        static_cast<unsigned long long>(fs.load_failures),
        static_cast<unsigned long long>(fs.retries),
        static_cast<unsigned long long>(fs.failed_loads),
        static_cast<unsigned long long>(fs.transient_upsets),
        static_cast<unsigned long long>(fs.scrub_repairs),
        static_cast<unsigned long long>(fs.quarantined_prcs),
        static_cast<unsigned long long>(fs.quarantined_cg));
  }

  if (meta.checkpoint_every > 0) {
    // `sequence` counts the run's whole checkpoint stream (a resumed run
    // continues the numbering from the snapshot), so interrupted and
    // uninterrupted runs print the same total.
    std::printf("\ncheckpoint stream: %llu snapshot(s) every %llu cycles -> "
                "%s\n",
                static_cast<unsigned long long>(sequence),
                static_cast<unsigned long long>(meta.checkpoint_every),
                meta.checkpoint_path.c_str());
  }

  if (traced) {
    const bool jsonl = ends_with(meta.trace_path, ".jsonl");
    const bool ok =
        jsonl ? write_trace_jsonl_file(meta.trace_path, recorder.events(), lib)
              : write_chrome_trace_file(meta.trace_path, recorder.events(),
                                        lib);
    if (!ok) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   meta.trace_path.c_str());
      return 2;
    }
    std::printf("\nwrote %zu trace events to %s (%s)\n", recorder.size(),
                meta.trace_path.c_str(),
                jsonl ? "JSON Lines" : "Chrome trace-event JSON");
    print_counters(counters);
  }
  if (!meta.report_path.empty()) {
    obs::AnalysisConfig config;
    config.num_prcs = meta.prcs;
    config.num_cg = meta.cg;
    const obs::RunReport run_report =
        obs::analyze_trace(recorder.events(), config);
    if (!obs::write_report_file(meta.report_path, run_report)) {
      std::fprintf(stderr, "error: cannot write report file '%s'\n",
                   meta.report_path.c_str());
      return 2;
    }
    std::printf("\nwrote run report (%zu events analyzed) to %s\n",
                run_report.total_events, meta.report_path.c_str());
  }
  return 0;
}

/// The `checkpoint` verb: run only the mRTS leg up to --at-cycle and write a
/// one-shot snapshot. No baselines run and no save marker is recorded — the
/// later `restore` then produces output byte-identical to a plain `run`
/// (the crash-soak check diffs exactly that).
int cmd_checkpoint(const CheckpointMeta& meta, Cycles at_cycle) {
  Workload w;
  if (!build_workload(meta.app, meta.frames, &w)) {
    return cli_spec().usage();
  }

  const bool instrument =
      !meta.trace_path.empty() || !meta.report_path.empty();
  TraceRecorder recorder;
  CounterRegistry counters;
  MRtsConfig mrts_config;
  mrts_config.fault = meta.fault;
  MachineConfig machine_config;
  machine_config.prcs = meta.prcs;
  machine_config.cg_fabrics = meta.cg;
  Machine machine(*w.lib, machine_config);
  machine.add_rts(mrts_config);
  MRts& rts = machine.mrts(0);
  if (instrument) machine.attach_observability(&recorder, &counters);

  AppRunProgress progress;
  if (run_application_portion(rts, *w.trace, progress,
                              instrument ? &recorder : nullptr, at_cycle)) {
    std::fprintf(stderr,
                 "error: run completed at cycle %llu, before --at-cycle %llu; "
                 "nothing left to checkpoint\n",
                 static_cast<unsigned long long>(progress.cursor),
                 static_cast<unsigned long long>(at_cycle));
    return 2;
  }
  const std::vector<std::uint8_t> bytes =
      build_snapshot(meta, rts, progress, instrument ? &recorder : nullptr,
                     instrument ? &counters : nullptr);
  if (!write_snapshot_file(meta.checkpoint_path, bytes)) {
    std::fprintf(stderr, "error: cannot write snapshot file '%s'\n",
                 meta.checkpoint_path.c_str());
    return 2;
  }
  std::printf("checkpointed %s at cycle %llu (block %zu/%zu) to %s "
              "(%zu bytes)\n",
              meta.app.c_str(),
              static_cast<unsigned long long>(progress.cursor),
              progress.next_block, w.trace->blocks.size(),
              meta.checkpoint_path.c_str(), bytes.size());
  return 0;
}

/// One `NAME=POLICY[:ARG][@PRIO]` task spec of the run-multi verb.
struct TaskSpec {
  std::string name;
  TenantPolicy policy;
};

/// Parses a run-multi task spec. Malformed specs are input errors (exit 2):
/// the caller prints \p err and bails, nothing is silently defaulted.
bool parse_task_spec(const std::string& spec, TaskSpec* out,
                     std::string* err) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    *err = "expected NAME=POLICY[:ARG][@PRIO]";
    return false;
  }
  out->name = spec.substr(0, eq);
  std::string rest = spec.substr(eq + 1);

  const std::size_t at = rest.find('@');
  if (at != std::string::npos) {
    if (!parse_bounded(rest.substr(at + 1), 0, 1000000,
                       &out->policy.priority)) {
      *err = "bad priority '" + rest.substr(at + 1) +
             "' (expected an integer in [0,1000000])";
      return false;
    }
    rest = rest.substr(0, at);
  }

  const std::size_t colon = rest.find(':');
  const std::string policy = rest.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : rest.substr(colon + 1);
  if (policy == "weighted") {
    out->policy.share = TenantShare::kWeighted;
    out->policy.weight = 1;
    if (!arg.empty() && !parse_bounded(arg, 0, 1000, &out->policy.weight)) {
      *err = "bad weight '" + arg + "' (expected an integer in [0,1000])";
      return false;
    }
    if (out->policy.weight == 0) {
      *err = "weighted tenants need a weight >= 1";
      return false;
    }
  } else if (policy == "reserved") {
    out->policy.share = TenantShare::kReserved;
    const std::size_t plus = arg.find('+');
    if (plus == std::string::npos ||
        !parse_bounded(arg.substr(0, plus), 0, 1000,
                       &out->policy.reserved_prcs) ||
        !parse_bounded(arg.substr(plus + 1), 0, 1000,
                       &out->policy.reserved_cg)) {
      *err = "bad reservation '" + arg + "' (expected <prcs>+<cg>, e.g. 2+1)";
      return false;
    }
    if (out->policy.reserved_prcs + out->policy.reserved_cg == 0) {
      *err = "reserved tenants need a non-empty reservation";
      return false;
    }
  } else if (policy == "best-effort") {
    out->policy.share = TenantShare::kBestEffort;
    if (!arg.empty()) {
      *err = "best-effort takes no ':" + arg + "' argument";
      return false;
    }
  } else {
    *err = "unknown policy '" + policy +
           "' (expected weighted, reserved or best-effort)";
    return false;
  }
  return true;
}

/// Parses the NAME=POLICY[:ARG][@PRIO] spec arguments shared by run-multi
/// and run-cmp (exit-code-2 diagnostics on malformed or duplicate specs).
bool parse_task_specs(const std::vector<std::string>& spec_args,
                      std::vector<TaskSpec>* specs) {
  for (const std::string& raw_spec : spec_args) {
    TaskSpec spec;
    std::string err;
    if (!parse_task_spec(raw_spec, &spec, &err)) {
      std::fprintf(stderr, "error: bad task spec '%s': %s\n",
                   raw_spec.c_str(), err.c_str());
      return false;
    }
    for (const TaskSpec& prev : *specs) {
      if (prev.name == spec.name) {
        std::fprintf(stderr, "error: duplicate task name '%s'\n",
                     spec.name.c_str());
        return false;
      }
    }
    specs->push_back(std::move(spec));
  }
  return true;
}

/// One synthetic kernel + application per task, all built into one combined
/// library so every MRts shares the fabric's data-path table. Trace i is
/// seeded by its spec index, so the same spec list always regenerates the
/// same workload (the run-multi/run-cmp determinism contract).
void build_synthetic_workload(const std::vector<TaskSpec>& specs,
                              unsigned blocks, IseLibrary* combined,
                              std::vector<ApplicationTrace>* traces) {
  std::vector<KernelId> kernels;
  for (const TaskSpec& spec : specs) {
    IseBuildSpec build;
    build.kernel_name = spec.name;
    build.sw_latency = 700;
    build.control_fraction = 0.4;
    build.fg_data_path_names = {spec.name + "_ctrl_fg", spec.name + "_dp_fg"};
    build.cg_data_path_names = {spec.name + "_mac_cg"};
    build.fg_control_dps = 1;
    build.cg_data_dps = 1;
    kernels.push_back(build_kernel_ises(*combined, build));
  }
  traces->resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Rng rng(1000 + i);
    for (unsigned b = 0; b < blocks; ++b) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, /*macroblocks=*/400, {{kernels[i], 8.0, 25, 0.1}},
          /*entry_gap=*/200, /*tail_gap=*/200, rng);
      stamp_programmed_trigger(inst, *combined);
      (*traces)[i].blocks.push_back(std::move(inst));
    }
  }
}

int cmd_run_multi(unsigned prcs, unsigned cg, unsigned blocks,
                  const std::vector<std::string>& spec_args) {
  std::vector<TaskSpec> specs;
  if (!parse_task_specs(spec_args, &specs)) return 2;

  IseLibrary combined;
  std::vector<ApplicationTrace> traces;
  build_synthetic_workload(specs, blocks, &combined, &traces);

  // One arbitrated machine (sim/machine.h) owns the shared fabric, the
  // arbiter and every tenant-bound MRts, replacing the hand-built
  // FabricManager/FabricArbiter/MRts wiring.
  MachineConfig machine_config;
  machine_config.prcs = prcs;
  machine_config.cg_fabrics = cg;
  machine_config.tenancy = Tenancy::kArbitrated;
  Machine machine(combined, machine_config);
  FabricArbiter& arbiter = machine.arbiter();
  std::vector<FabricArbiter::Registration> regs;
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    regs.push_back(machine.register_tenant(specs[i].name, specs[i].policy));
    if (!regs.back().admitted) continue;  // bounced: reported below
    Task task;
    task.name = specs[i].name;
    task.rts = &machine.add_rts(regs[i].id);
    task.trace = &traces[i];
    task.priority = specs[i].policy.priority;
    task.tenant = regs[i].id;
    tasks.push_back(std::move(task));
  }
  const MultiTenantResult result = run_multi_tenant(tasks, &arbiter);

  TextTable table({"task", "policy", "prio", "status", "blocks", "Mcycles",
                   "blocks/Mcyc", "evicted others", "evicted by others",
                   "quota redirects"});
  auto policy_text = [](const TenantPolicy& p) {
    std::string policy = std::string(to_string(p.share));
    if (p.share == TenantShare::kWeighted) {
      policy += ":" + std::to_string(p.weight);
    } else if (p.share == TenantShare::kReserved) {
      policy += ":" + std::to_string(p.reserved_prcs) + "+" +
                std::to_string(p.reserved_cg);
    }
    return policy;
  };
  std::vector<double> throughputs;
  std::uint64_t total_blocks = 0;
  std::vector<std::size_t> bounced;
  for (std::size_t i = 0, next_result = 0; i < specs.size(); ++i) {
    const TenantPolicy& p = specs[i].policy;
    if (!regs[i].admitted) {
      bounced.push_back(i);
      continue;
    }
    const MultiTenantTaskResult& tr = result.tasks[next_result++];
    const TenantStats& stats = arbiter.stats(regs[i].id);
    const double throughput =
        tr.run.active_cycles == 0
            ? 0.0
            : static_cast<double>(tr.run.block_cycles.size()) * 1e6 /
                  static_cast<double>(tr.run.active_cycles);
    throughputs.push_back(throughput);
    total_blocks += tr.run.block_cycles.size();
    table.add_values(specs[i].name, policy_text(p), p.priority, "ok",
                     tr.run.block_cycles.size(),
                     format_mcycles(tr.run.active_cycles),
                     format_double(throughput, 2), stats.evictions_caused,
                     stats.evictions_suffered, stats.quota_redirects);
  }
  // Bounced-tenant diagnostics sort by name (not registration order): the
  // rows are stable under spec reordering, so smoke-test diffs don't churn.
  std::sort(bounced.begin(), bounced.end(),
            [&specs](std::size_t a, std::size_t b) {
              return specs[a].name < specs[b].name;
            });
  for (const std::size_t i : bounced) {
    table.add_values(specs[i].name, policy_text(specs[i].policy),
                     specs[i].policy.priority, "bounced: " + regs[i].reason, 0,
                     "-", "-", "-", "-", "-");
  }
  std::printf("%u PRCs + %u CG fabrics, %u blocks/task, %zu task(s):\n%s",
              prcs, cg, blocks, specs.size(), table.render().c_str());
  if (result.total_cycles > 0) {
    std::printf("\ntotal %s Mcycles, aggregate throughput %.2f blocks/Mcyc, "
                "Jain fairness index %.4f\n",
                format_mcycles(result.total_cycles).c_str(),
                static_cast<double>(total_blocks) * 1e6 /
                    static_cast<double>(result.total_cycles),
                jain_fairness_index(throughputs));
  }
  return 0;
}

int cmd_run_cmp(unsigned cores, unsigned prcs, unsigned cg, unsigned blocks,
                unsigned hop_stride, unsigned transfers_per_block,
                const std::vector<std::string>& spec_args) {
  if (spec_args.size() > cores) {
    std::fprintf(stderr,
                 "error: %zu task spec(s) for %u core(s) (one task per core)\n",
                 spec_args.size(), cores);
    return 2;
  }
  // Spec i runs on core i; unspecified cores run the default
  // `core<i>=weighted:1` tenant. Duplicate names (including collisions with
  // the defaults) are caught by parse_task_specs.
  std::vector<std::string> padded = spec_args;
  for (std::size_t i = padded.size(); i < cores; ++i) {
    padded.push_back("core" + std::to_string(i) + "=weighted:1");
  }
  std::vector<TaskSpec> specs;
  if (!parse_task_specs(padded, &specs)) return 2;

  IseLibrary combined;
  std::vector<ApplicationTrace> traces;
  build_synthetic_workload(specs, blocks, &combined, &traces);

  MachineConfig machine_config;
  machine_config.cores = cores;
  machine_config.prcs = prcs;
  machine_config.cg_fabrics = cg;
  machine_config.tenancy = Tenancy::kArbitrated;
  machine_config.interconnect =
      InterconnectParams::linear_chain(cores, hop_stride);
  Machine machine(combined, machine_config);
  const Interconnect& icn = machine.interconnect();

  std::vector<FabricArbiter::Registration> regs;
  std::vector<CmpCore> cmp_cores(cores);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    regs.push_back(machine.register_tenant(specs[i].name, specs[i].policy));
    if (!regs.back().admitted) continue;  // bounced: core idles, reported below
    Task task;
    task.name = specs[i].name;
    task.rts = &machine.add_rts(regs[i].id);
    task.trace = &traces[i];
    task.priority = specs[i].policy.priority;
    task.tenant = regs[i].id;
    cmp_cores[i].tasks.push_back(std::move(task));
  }
  CmpParams params;
  params.transfers_per_block = transfers_per_block;
  params.fabric = &machine.fabric();
  const CmpResult result = run_cmp(cmp_cores, icn, &machine.arbiter(), params);

  TextTable table({"core", "hops", "task", "status", "blocks", "Mcycles",
                   "blocks/Mcyc", "xfer cyc", "port wait"});
  std::vector<double> throughputs;
  std::uint64_t total_blocks = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const unsigned hops = icn.core_distance(static_cast<unsigned>(i));
    if (!regs[i].admitted) {
      table.add_values(i, hops, specs[i].name, "bounced: " + regs[i].reason,
                       0, "-", "-", "-", "-");
      throughputs.push_back(0.0);
      continue;
    }
    const CmpCoreResult& cr = result.cores[i];
    const TaskRunResult& tr = cr.run.tasks[0].run;
    const double throughput =
        tr.active_cycles == 0
            ? 0.0
            : static_cast<double>(tr.block_cycles.size()) * 1e6 /
                  static_cast<double>(tr.active_cycles);
    throughputs.push_back(throughput);
    total_blocks += tr.block_cycles.size();
    table.add_values(i, hops, specs[i].name, "ok", tr.block_cycles.size(),
                     format_mcycles(tr.active_cycles),
                     format_double(throughput, 2), cr.interconnect_cycles,
                     cr.port_wait_cycles);
  }
  std::printf("%u core(s) sharing %u PRCs + %u CG fabrics, %u blocks/core, "
              "hop stride %u, %u transfer(s)/block:\n%s",
              cores, prcs, cg, blocks, hop_stride, transfers_per_block,
              table.render().c_str());
  if (result.total_cycles > 0) {
    std::printf("\nmakespan %s Mcycles, aggregate throughput %.2f "
                "blocks/Mcyc, Jain fairness index %.4f\n",
                format_mcycles(result.total_cycles).c_str(),
                static_cast<double>(total_blocks) * 1e6 /
                    static_cast<double>(result.total_cycles),
                jain_fairness_index(throughputs));
  }
  return 0;
}

int cmd_trace_summary(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 2;
  }
  const TraceSummary summary = summarize_trace_jsonl(in);
  if (summary.parse_errors > 0) {
    std::fprintf(stderr,
                 "error: %zu malformed line(s) in '%s' (first at line %zu)\n",
                 summary.parse_errors, path.c_str(), summary.first_bad_line);
    return 2;
  }
  std::printf("%zu events", summary.total_events);
  if (summary.total_events > 0) {
    std::printf(", cycles %llu..%llu",
                static_cast<unsigned long long>(summary.first_cycle),
                static_cast<unsigned long long>(summary.last_cycle));
  }
  std::printf("\n");
  if (summary.span_durations.count() > 0) {
    const Histogram& h = summary.span_durations;
    std::printf(
        "span durations: %llu spans, p50 %s, p90 %s, p99 %s, max %s cycles\n",
        static_cast<unsigned long long>(h.count()),
        format_double(h.percentile(0.50), 0).c_str(),
        format_double(h.percentile(0.90), 0).c_str(),
        format_double(h.percentile(0.99), 0).c_str(),
        format_double(h.max(), 0).c_str());
  }
  // Rows sort by kind *name*, not enum order: the table then matches the
  // (alphabetical) counter table — e.g. the selector.cache row lands next to
  // the selector.cache.{hit,miss} counters — and stays stable when new enum
  // values are appended. Pinned by
  // ProfitCacheObservability.CounterTableOrderIsAlphabetical.
  std::map<std::string, std::size_t> rows;
  for (std::size_t i = 0; i < kNumTraceEventKinds; ++i) {
    if (summary.per_kind[i] == 0) continue;
    rows[to_string(static_cast<TraceEventKind>(i))] = summary.per_kind[i];
  }
  TextTable table({"kind", "events"});
  for (const auto& [kind, events] : rows) table.add_values(kind, events);
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_trace_analyze(const std::string& path, const std::string& out_path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 2;
  }
  const ParsedTrace parsed = parse_trace_jsonl(in);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: malformed trace line %zu in '%s'\n",
                 parsed.bad_line, path.c_str());
    return 2;
  }
  const obs::RunReport report = obs::analyze_trace(parsed.events);
  if (out_path.empty()) {
    std::ostringstream os;
    obs::write_report_markdown(os, report);
    std::printf("%s", os.str().c_str());
    return 0;
  }
  if (!obs::write_report_file(out_path, report)) {
    std::fprintf(stderr, "error: cannot write report file '%s'\n",
                 out_path.c_str());
    return 2;
  }
  std::printf("wrote run report (%zu events analyzed) to %s\n",
              report.total_events, out_path.c_str());
  return 0;
}

/// Bounds of the fabric and workload counts on the command line.
constexpr unsigned kMaxFabric = 1024;
constexpr unsigned kMaxBlocks = 100000;
constexpr std::uint64_t kMaxU64 = ~std::uint64_t{0};

/// `run` and `checkpoint`: the command line becomes the CheckpointMeta
/// that run_compare and cmd_checkpoint take.
int cmd_run_verb(bool checkpoint_verb, CliArgs& args) {
  const std::vector<std::string>& pos = args.positionals;
  if (pos.empty() || pos.size() > 4) return cli_spec().usage();
  CheckpointMeta meta;
  meta.app = pos[0];
  meta.prcs = 2;
  meta.cg = 2;
  meta.frames = 8;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 42;
  unsigned max_retries = 3;
  Cycles at_cycle = 0;
  const bool ok =
      (pos.size() < 2 ||
       args.read_token("prcs", pos[1], 0, kMaxFabric, &meta.prcs)) &&
      (pos.size() < 3 ||
       args.read_token("cg", pos[2], 0, kMaxFabric, &meta.cg)) &&
      (pos.size() < 4 ||
       args.read_token("frames", pos[3], 1, kMaxBlocks, &meta.frames)) &&
      args.read_text("--trace", &meta.trace_path) &&
      args.read_text("--report", &meta.report_path) &&
      args.read_probability("--fault-rate", &fault_rate) &&
      args.read("--fault-seed", 0, kMaxU64, &fault_seed) &&
      args.read("--max-retries", 0, 1000, &max_retries) &&
      args.read("--checkpoint-every", 1, kMaxU64, &meta.checkpoint_every) &&
      args.read_text("--checkpoint", &meta.checkpoint_path) &&
      args.read("--at-cycle", 1, kMaxU64, &at_cycle) &&
      args.read_text("--out", &meta.checkpoint_path);
  if (!ok) return cli_spec().reject(args.error);
  // --checkpoint-every/--checkpoint come as a pair; checkpoint needs both
  // --at-cycle and --out.
  if (!checkpoint_verb &&
      (meta.checkpoint_every > 0) != !meta.checkpoint_path.empty()) {
    return cli_spec().usage();
  }
  if (checkpoint_verb && (at_cycle == 0 || meta.checkpoint_path.empty())) {
    return cli_spec().usage();
  }
  if (args.has("--no-bb-cache")) set_fastpath_enabled(false);
  if (fault_rate > 0.0) {  // default meta.fault: fault-free
    meta.fault = FaultModelConfig::uniform(fault_rate, fault_seed, max_retries);
  }
  if (checkpoint_verb) return cmd_checkpoint(meta, at_cycle);
  return run_compare(meta, nullptr);
}

int run_verb(const std::string& command, CliArgs& args) {
  const std::vector<std::string>& pos = args.positionals;
  if (command == "info" || command == "restore" ||
      command == "trace-summary" || command == "trace-analyze") {
    if (pos.size() != 1) return cli_spec().usage();
  }
  if (command == "info") return cmd_info(pos[0]);
  if (command == "select") {
    if (pos.size() < 4) return cli_spec().usage();
    unsigned prcs = 0;
    unsigned cg = 0;
    if (!args.read_token("prcs", pos[1], 0, kMaxFabric, &prcs) ||
        !args.read_token("cg", pos[2], 0, kMaxFabric, &cg)) {
      return cli_spec().reject(args.error);
    }
    return cmd_select(pos[0], prcs, cg, {pos.begin() + 3, pos.end()});
  }
  if (command == "run" || command == "checkpoint") {
    return cmd_run_verb(command == "checkpoint", args);
  }
  if (command == "restore") {
    std::vector<std::uint8_t> bytes;
    std::string err;
    if (!read_snapshot_file(pos[0], &bytes, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
    // Throws SnapshotError (exit 2 in main) on truncated/corrupt/
    // wrong-version images, before any runtime state exists to damage.
    const CheckpointMeta meta = read_snapshot_meta(bytes);
    return run_compare(meta, &bytes);
  }
  if (command == "run-multi") {
    if (pos.size() < 4) return cli_spec().usage();
    unsigned prcs = 0;
    unsigned cg = 0;
    unsigned blocks = 0;
    if (!args.read_token("prcs", pos[0], 1, kMaxFabric, &prcs) ||
        !args.read_token("cg", pos[1], 1, kMaxFabric, &cg) ||
        !args.read_token("blocks", pos[2], 1, kMaxBlocks, &blocks)) {
      return cli_spec().reject(args.error);
    }
    return cmd_run_multi(prcs, cg, blocks, {pos.begin() + 3, pos.end()});
  }
  if (command == "run-cmp") {
    if (pos.size() < 4) return cli_spec().usage();
    unsigned cores = 0;
    unsigned prcs = 0;
    unsigned cg = 0;
    unsigned blocks = 0;
    unsigned hop_stride = 0;
    unsigned transfers_per_block = 2;
    if (!args.read_token("cores", pos[0], 1, kMaxFabric, &cores) ||
        !args.read_token("prcs", pos[1], 1, kMaxFabric, &prcs) ||
        !args.read_token("cg", pos[2], 1, kMaxFabric, &cg) ||
        !args.read_token("blocks", pos[3], 1, kMaxBlocks, &blocks) ||
        !args.read("--hop-stride", 0, kMaxFabric, &hop_stride) ||
        !args.read("--transfers-per-block", 0, kMaxFabric,
                   &transfers_per_block)) {
      return cli_spec().reject(args.error);
    }
    return cmd_run_cmp(cores, prcs, cg, blocks, hop_stride,
                       transfers_per_block, {pos.begin() + 4, pos.end()});
  }
  if (command == "trace-summary") return cmd_trace_summary(pos[0]);
  std::string out_path;
  if (!args.read_text("--out", &out_path)) {
    return cli_spec().reject(args.error);
  }
  return cmd_trace_analyze(pos[0], out_path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return cli_spec().usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "help") {
    std::fputs(cli_spec().help().c_str(), stdout);
    return 0;
  }
  const CliVerb* verb = cli_spec().verb(command);
  if (verb == nullptr) return cli_spec().usage();
  CliArgs args = CliSpec::parse(*verb, argc, argv, 2);
  // `mrts_cli <verb> --help` prints the verb's table-generated help and
  // exits 0, before any argument validation.
  if (args.help) {
    std::fputs(cli_spec().verb_help(*verb).c_str(), stdout);
    return 0;
  }
  if (!args.ok()) return cli_spec().reject(args.error);
  try {
    return run_verb(command, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
