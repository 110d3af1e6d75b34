// Tests for the flight recorder (util/trace.h) and the counter registry
// (util/counters.h): event recording, both exporters, the JSONL parser and
// summary, histogram bucketing, deterministic registry merges under the
// parallel sweep engine, and the end-to-end contract that attaching a
// recorder never changes simulation results.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fastpath_guard.h"
#include "rts/mrts.h"
#include "rts/rts_interface.h"
#include "rts/snapshot.h"
#include "serve/serve_core.h"
#include "sim/app_simulator.h"
#include "sim/sweep_runner.h"
#include "util/counters.h"
#include "util/snapshot_io.h"
#include "util/trace.h"
#include "workload/h264_app.h"
#include "workload/sdr_app.h"

namespace mrts {
namespace {

TraceEvent make_event(TraceEventKind kind, Cycles at, Cycles dur = 0) {
  return {kind, kTrackApp, at, dur, 1, 2, 3.5, 4.5};
}

TEST(TraceRecorder, RecordsAndCounts) {
  TraceRecorder rec;
  EXPECT_TRUE(rec.empty());
  rec.record(make_event(TraceEventKind::kBlockBegin, 0));
  rec.record(make_event(TraceEventKind::kBlockEnd, 0, 100));
  rec.record(make_event(TraceEventKind::kBlockEnd, 100, 50));
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.count(TraceEventKind::kBlockEnd), 2u);
  EXPECT_EQ(rec.count(TraceEventKind::kMpuError), 0u);
  rec.clear();
  EXPECT_TRUE(rec.empty());
}

TEST(TraceEventKindNames, RoundTripForEveryKind) {
  for (std::size_t i = 0; i < kNumTraceEventKinds; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    const char* name = to_string(kind);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
    const auto back = trace_kind_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(trace_kind_from_string("no_such_kind").has_value());
}

TEST(TraceEventKindNames, EcuLabelsMatchImplKindNames) {
  // trace.cpp keeps a local copy of the ImplKind names (util must not
  // include rts headers). This pins the two tables together: if
  // to_string(ImplKind) changes, the exporter labels must follow.
  for (std::size_t i = 0; i < kNumImplKinds; ++i) {
    std::vector<TraceEvent> events;
    events.push_back({TraceEventKind::kEcuDecision, kTrackEcu, 0, 0, 0,
                      static_cast<std::uint32_t>(i), 0.0, 0.0});
    std::ostringstream os;
    write_trace_jsonl(os, events);
    EXPECT_NE(os.str().find(to_string(static_cast<ImplKind>(i))),
              std::string::npos)
        << "label missing ImplKind name '"
        << to_string(static_cast<ImplKind>(i)) << "'";
  }
}

TEST(TraceExport, CyclesToMicroseconds) {
  // 400 MHz core clock: 400 cycles = 1 us.
  EXPECT_DOUBLE_EQ(trace_cycles_to_us(400), 1.0);
  EXPECT_DOUBLE_EQ(trace_cycles_to_us(0), 0.0);
  EXPECT_DOUBLE_EQ(trace_cycles_to_us(1), 0.0025);
}

/// Checks that braces/brackets balance outside of string literals — a cheap
/// structural JSON validity test with no external parser dependency.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceExport, ChromeJsonIsStructurallyValid) {
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kBlockEnd, kTrackApp, 0, 1000, 7, 0,
                    12.0, 0.0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase + 1, 400,
                    480000, 3, 0, 0.0, 0.0});
  events.push_back({TraceEventKind::kOccupancy, kTrackApp, 800, 0, 4, 2, 3.0,
                    1.0});
  events.push_back({TraceEventKind::kMpuError, kTrackMpu, 900, 0, 1, 2,
                    100.5, 98.0});
  // Label text with JSON-hostile characters must be escaped.
  std::ostringstream os;
  write_chrome_trace(os, events);
  const std::string json = os.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  expect_balanced_json(json);
  // Metadata names every referenced track, spans carry ts+dur, occupancy
  // becomes a counter event.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1200"), std::string::npos);  // 480000 cyc = 1200 us
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceExport, ChromeJsonOfEmptyTraceIsValid) {
  std::ostringstream os;
  write_chrome_trace(os, {});
  expect_balanced_json(os.str());
  EXPECT_EQ(os.str().rfind("{\"traceEvents\":[", 0), 0u);
}

TEST(TraceExport, JsonlRoundTripsEveryField) {
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kSelectorEval, kTrackSelector, 123, 0, 9,
                    4, -2.25, 1e9, 7});
  events.push_back({TraceEventKind::kReconfigStart, kTrackCgBase, 400, 60, 1,
                    1, 0.0, 0.0});
  std::ostringstream os;
  write_trace_jsonl(os, events);

  std::istringstream is(os.str());
  std::string line;
  std::size_t i = 0;
  while (std::getline(is, line)) {
    ASSERT_LT(i, events.size());
    const auto parsed = parse_trace_jsonl_line(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->kind, events[i].kind);
    EXPECT_EQ(parsed->track, events[i].track);
    EXPECT_EQ(parsed->at, events[i].at);
    EXPECT_EQ(parsed->duration, events[i].duration);
    EXPECT_EQ(parsed->arg0, events[i].arg0);
    EXPECT_EQ(parsed->arg1, events[i].arg1);
    EXPECT_DOUBLE_EQ(parsed->v0, events[i].v0);
    EXPECT_DOUBLE_EQ(parsed->v1, events[i].v1);
    EXPECT_EQ(parsed->tenant, events[i].tenant);
    ++i;
  }
  EXPECT_EQ(i, events.size());

  // Pre-tenant traces (no "tenant" token) still parse; the field defaults
  // to kUnownedTenant.
  const auto legacy = parse_trace_jsonl_line(
      "{\"kind\":\"block_begin\",\"at\":5,\"dur\":0,\"track\":0,"
      "\"arg0\":1,\"arg1\":2,\"v0\":0,\"v1\":0}");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->tenant, kUnownedTenant);
}

TEST(TraceExport, SummaryAggregatesKindsAndCycleRange) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(TraceEventKind::kBlockBegin, 100));
  events.push_back(make_event(TraceEventKind::kBlockEnd, 100, 900));
  events.push_back(make_event(TraceEventKind::kBlockBegin, 2000));
  std::ostringstream os;
  write_trace_jsonl(os, events);

  std::istringstream is(os.str());
  const TraceSummary summary = summarize_trace_jsonl(is);
  EXPECT_EQ(summary.total_events, 3u);
  EXPECT_EQ(summary.parse_errors, 0u);
  EXPECT_EQ(summary.per_kind[static_cast<std::size_t>(
                TraceEventKind::kBlockBegin)],
            2u);
  EXPECT_EQ(summary.first_cycle, 100u);
  EXPECT_EQ(summary.last_cycle, 2000u);  // span end 100+900 < last instant
}

TEST(TraceExport, SummaryCountsMalformedLines) {
  std::istringstream is(
      "{\"kind\":\"block_begin\",\"at\":5}\n"
      "not json at all\n"
      "\n"  // blank lines are skipped, not errors
      "{\"kind\":\"no_such_kind\",\"at\":5}\n");
  const TraceSummary summary = summarize_trace_jsonl(is);
  EXPECT_EQ(summary.total_events, 1u);
  EXPECT_EQ(summary.parse_errors, 2u);
}

TEST(Histogram, BucketEdges) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.999), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_of(1.99), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 11u);
  // Enormous values clamp into the last bucket instead of overflowing.
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            Histogram::kBuckets - 1);
}

TEST(Histogram, StatsAndMerge) {
  Histogram a;
  a.observe(2.0);
  a.observe(6.0);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);

  Histogram b;
  b.observe(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 18.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);

  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
}

std::vector<std::uint8_t> histogram_bytes(const Histogram& h) {
  SnapshotWriter w;
  h.save_state(w);
  return w.take();
}

/// observe(value, times) on a copy of \p base must leave exactly the state
/// `times` single observe(value) calls leave — down to the sum's bits.
void expect_batched_observe_matches_loop(const Histogram& base, double value,
                                         std::uint64_t times) {
  Histogram loop = base;
  for (std::uint64_t i = 0; i < times; ++i) loop.observe(value);
  Histogram batched = base;
  batched.observe(value, times);
  EXPECT_EQ(batched.count(), loop.count()) << value << " x" << times;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.sum()),
            std::bit_cast<std::uint64_t>(loop.sum()))
      << value << " x" << times;
  EXPECT_EQ(batched.buckets(), loop.buckets()) << value << " x" << times;
  // min/max/sum bit patterns (NaN included) via the snapshot encoding.
  EXPECT_EQ(histogram_bytes(batched), histogram_bytes(loop))
      << value << " x" << times;
}

TEST(Histogram, BatchedObserveIsBitIdenticalToRepeatedObserve) {
  Histogram empty;
  Histogram warm;
  warm.observe(3.0);
  warm.observe(17.0);
  Histogram fractional;  // non-integral running sum: always the loop
  fractional.observe(0.1);
  fractional.observe(0.2);

  for (const Histogram* base : {&empty, &warm, &fractional}) {
    for (const std::uint64_t times : {0ull, 1ull, 2ull, 1000ull}) {
      expect_batched_observe_matches_loop(*base, 0.0, times);
      expect_batched_observe_matches_loop(*base, 7.0, times);
      expect_batched_observe_matches_loop(*base, 4096.0, times);
      expect_batched_observe_matches_loop(*base, 0.3, times);
      expect_batched_observe_matches_loop(*base, -0.0, times);
      expect_batched_observe_matches_loop(*base, -5.0, times);
      expect_batched_observe_matches_loop(*base, std::nan(""), times);
      expect_batched_observe_matches_loop(
          *base, std::numeric_limits<double>::infinity(), times);
    }
  }

  // Running sum near 2^53: a total below it takes the O(1) branch; reaching
  // it (exact) or passing it (rounding) takes the loop.
  const double two53 = std::ldexp(1.0, 53);
  Histogram near;
  near.observe(two53 - 20.0);
  expect_batched_observe_matches_loop(near, 4.0, 4);
  expect_batched_observe_matches_loop(near, 4.0, 5);
  expect_batched_observe_matches_loop(near, 4.0, 6);
  expect_batched_observe_matches_loop(near, 3.0, 1000);
  Histogram past;
  past.observe(two53 + 2.0);
  expect_batched_observe_matches_loop(past, 1.0, 10);
}

TEST(CounterRegistry, SlotsCreateOnFirstUse) {
  CounterRegistry reg;
  reg.observe("h", 5.0);
  reg.observe("h", 5.0);
  reg.observe("h", 5.0);

  // Slots are the registry's own nodes: writes through them are visible by
  // name, and they survive later insertions.
  std::uint64_t& slot = reg.counter_slot("c");
  EXPECT_EQ(reg.counter("c"), 0u);
  EXPECT_EQ(reg.counters().count("c"), 1u);
  slot += 4;
  for (int i = 0; i < 64; ++i) reg.add("filler." + std::to_string(i));
  slot += 1;
  EXPECT_EQ(reg.counter("c"), 5u);
  EXPECT_EQ(&reg.counter_slot("c"), &slot);
  Histogram& h = reg.histogram_slot("h");
  h.observe(5.0);
  EXPECT_EQ(reg.histogram("h")->count(), 4u);
  EXPECT_EQ(&reg.histogram_slot("h"), &h);
}

TEST(CounterRegistry, AddObserveLookup) {
  CounterRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.add("a.count");
  reg.add("a.count", 4);
  reg.observe("a.latency", 8.0);
  EXPECT_EQ(reg.counter("a.count"), 5u);
  EXPECT_EQ(reg.counter("never.touched"), 0u);
  ASSERT_NE(reg.histogram("a.latency"), nullptr);
  EXPECT_EQ(reg.histogram("a.latency")->count(), 1u);
  EXPECT_EQ(reg.histogram("never.touched"), nullptr);
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(CounterRegistry, SubmissionOrderMergeIsDeterministicAtAnyJobCount) {
  // Double sums are not order-independent: 0.1 + 0.2 + 0.3 may differ in the
  // last bit from 0.3 + 0.2 + 0.1. Per-point registries merged in submission
  // order therefore give bit-identical aggregates at any worker count.
  const std::vector<int> points{0, 1, 2, 3, 4, 5, 6, 7};
  auto run_at = [&](unsigned jobs) {
    const SweepRunner runner(jobs);
    const auto regs = runner.map(points, [](int p) {
      CounterRegistry reg;
      reg.add("point.visits");
      // Values chosen to make the sum rounding-sensitive.
      reg.observe("point.value", 0.1 * static_cast<double>(p + 1));
      reg.observe("point.value", 1e16);
      return reg;
    });
    CounterRegistry merged;
    for (const auto& reg : regs) merged.merge(reg);
    return merged;
  };

  const CounterRegistry serial = run_at(1);
  EXPECT_EQ(serial.counter("point.visits"), points.size());
  const double serial_sum = serial.histogram("point.value")->sum();
  for (unsigned jobs : {2u, 4u}) {
    const CounterRegistry parallel = run_at(jobs);
    EXPECT_EQ(parallel.counter("point.visits"), points.size());
    // Bit-exact equality, not EXPECT_NEAR: this is the determinism contract.
    EXPECT_EQ(parallel.histogram("point.value")->sum(), serial_sum)
        << "jobs=" << jobs;
  }
}

TEST(TraceIntegration, TracedRunMatchesUntracedAndCapturesTheRun) {
  H264AppParams params;
  params.frames = 2;
  params.macroblocks = 20;
  const H264Application app = build_h264_application(params);

  MRts plain(app.library, 2, 2);
  const AppRunResult untraced = run_application(plain, app.trace);

  MRts observed(app.library, 2, 2);
  TraceRecorder recorder;
  CounterRegistry counters;
  observed.attach_observability(&recorder, &counters);
  const AppRunResult traced = run_application(observed, app.trace, &recorder);

  // Observability must never perturb the simulation.
  EXPECT_EQ(traced.total_cycles, untraced.total_cycles);
  EXPECT_EQ(traced.blocking_overhead, untraced.blocking_overhead);
  EXPECT_EQ(traced.impl_executions, untraced.impl_executions);

  // The recorder saw the run: blocks, selector work, reconfigurations,
  // ECU decisions and MPU feedback.
  EXPECT_EQ(recorder.count(TraceEventKind::kBlockBegin),
            app.trace.blocks.size());
  EXPECT_EQ(recorder.count(TraceEventKind::kBlockEnd),
            app.trace.blocks.size());
  EXPECT_GT(recorder.count(TraceEventKind::kSelectorPick), 0u);
  EXPECT_GT(recorder.count(TraceEventKind::kReconfigStart), 0u);
  EXPECT_GT(recorder.count(TraceEventKind::kEcuDecision), 0u);
  EXPECT_GT(recorder.count(TraceEventKind::kMpuError), 0u);
  EXPECT_GT(counters.counter("fabric.installs"), 0u);
  EXPECT_GT(counters.counter("mpu.observations"), 0u);

  // Both exporters digest the real event stream; the chrome export resolves
  // ids against the library (kernel names appear in labels).
  std::ostringstream chrome;
  write_chrome_trace(chrome, recorder.events(), &app.library);
  expect_balanced_json(chrome.str());
  EXPECT_NE(chrome.str().find(app.library.kernels().front().name),
            std::string::npos);

  std::ostringstream jsonl;
  write_trace_jsonl(jsonl, recorder.events(), &app.library);
  std::istringstream is(jsonl.str());
  const TraceSummary summary = summarize_trace_jsonl(is);
  EXPECT_EQ(summary.total_events, recorder.size());
  EXPECT_EQ(summary.parse_errors, 0u);

  // Detaching stops recording: a fresh run adds no events.
  observed.attach_observability(nullptr, nullptr);
  recorder.clear();
  run_application(observed, app.trace);
  EXPECT_TRUE(recorder.empty());
}

/// Everything a fully observed run produces, as comparable bytes.
struct ObservedOutput {
  AppRunResult result;
  std::string jsonl;
  std::vector<std::uint8_t> counters;  ///< CounterRegistry::save_state
};

ObservedOutput capture(const AppRunResult& result, const TraceRecorder& rec,
                       const CounterRegistry& counters) {
  ObservedOutput out;
  out.result = result;
  std::ostringstream os;
  write_trace_jsonl(os, rec.events());
  out.jsonl = os.str();
  SnapshotWriter w;
  counters.save_state(w);
  out.counters = w.take();
  return out;
}

void expect_same_output(const ObservedOutput& fast,
                        const ObservedOutput& oracle, const std::string& what) {
  EXPECT_EQ(fast.result.total_cycles, oracle.result.total_cycles) << what;
  EXPECT_EQ(fast.result.blocking_overhead, oracle.result.blocking_overhead)
      << what;
  EXPECT_EQ(fast.result.block_cycles, oracle.result.block_cycles) << what;
  EXPECT_EQ(fast.result.impl_executions, oracle.result.impl_executions)
      << what;
  EXPECT_EQ(fast.result.impl_cycles, oracle.result.impl_cycles) << what;
  EXPECT_EQ(fast.jsonl, oracle.jsonl) << what;
  EXPECT_EQ(fast.counters, oracle.counters) << what;
}

ObservedOutput observed_run(const IseLibrary& lib,
                            const ApplicationTrace& trace, unsigned prcs,
                            unsigned cg, const MRtsConfig& config,
                            bool fastpath) {
  const FastpathGuard guard(fastpath);
  MRts rts(lib, cg, prcs, config);
  TraceRecorder rec;
  CounterRegistry counters;
  rts.attach_observability(&rec, &counters);
  const AppRunResult result = run_application(rts, trace, &rec);
  return capture(result, rec, counters);
}

/// Checkpoints at \p stop, restores into a fresh runtime and finishes.
ObservedOutput split_observed_run(const IseLibrary& lib,
                                  const ApplicationTrace& trace,
                                  unsigned prcs, unsigned cg, Cycles stop,
                                  bool fastpath) {
  const FastpathGuard guard(fastpath);
  MRts first(lib, cg, prcs);
  TraceRecorder rec;
  CounterRegistry counters;
  first.attach_observability(&rec, &counters);
  AppRunProgress progress;
  EXPECT_FALSE(run_application_portion(first, trace, progress, &rec, stop));
  CheckpointMeta meta;
  meta.prcs = prcs;
  meta.cg = cg;
  const std::vector<std::uint8_t> bytes =
      build_snapshot(meta, first, progress, &rec, &counters);

  MRts resumed(lib, cg, prcs);
  TraceRecorder resumed_rec;
  CounterRegistry resumed_counters;
  resumed.attach_observability(&resumed_rec, &resumed_counters);
  AppRunProgress resumed_progress;
  apply_snapshot(bytes, resumed, resumed_progress, &resumed_rec,
                 &resumed_counters);
  EXPECT_TRUE(
      run_application_portion(resumed, trace, resumed_progress, &resumed_rec));
  return capture(resumed_progress.partial, resumed_rec, resumed_counters);
}

TEST(TraceIntegration, TracedFastPathMatchesThePerEventOracle) {
  // The ECU's steady commits (memo path and bulk run commit) stay on with a
  // recorder and counters attached; their batched observability must equal
  // what per-event execution (fast path off) records, byte for byte —
  // including the histogram double sums inside the counter snapshot.
  H264AppParams params;
  params.frames = 3;
  const H264Application h264 = build_h264_application(params);
  struct Shape {
    unsigned prcs, cg;
  };
  for (const Shape shape : {Shape{1, 1}, Shape{2, 2}, Shape{4, 2},
                            Shape{6, 3}}) {
    const std::string what = "h264 " + std::to_string(shape.prcs) + "x" +
                             std::to_string(shape.cg);
    const ObservedOutput fast =
        observed_run(h264.library, h264.trace, shape.prcs, shape.cg, {}, true);
    const ObservedOutput oracle = observed_run(
        h264.library, h264.trace, shape.prcs, shape.cg, {}, false);
    expect_same_output(fast, oracle, what);
    EXPECT_GT(fast.result.total_cycles, 0u) << what;
  }

  MRtsConfig faulty;
  faulty.fault = FaultModelConfig::uniform(0.02, 42);
  expect_same_output(
      observed_run(h264.library, h264.trace, 6, 3, faulty, true),
      observed_run(h264.library, h264.trace, 6, 3, faulty, false),
      "h264 6x3 fault rate 0.02");

  SdrAppParams sdr_params;
  sdr_params.bursts = 4;
  const SdrApplication sdr = build_sdr_application(sdr_params);
  expect_same_output(observed_run(sdr.library, sdr.trace, 2, 1, {}, true),
                     observed_run(sdr.library, sdr.trace, 2, 1, {}, false),
                     "sdr 2x1");

  const Cycles stop =
      observed_run(h264.library, h264.trace, 4, 2, {}, true)
          .result.total_cycles /
      2;
  expect_same_output(
      split_observed_run(h264.library, h264.trace, 4, 2, stop, true),
      split_observed_run(h264.library, h264.trace, 4, 2, stop, false),
      "h264 4x2 checkpoint/restore");
}

TEST(TraceIntegration, TracedFastPathMatchesThePerEventOracleInServeCore) {
  // ServeCore attaches a recorder and counters to every job it runs.
  auto run_one_job = [](bool fastpath) {
    const FastpathGuard guard(fastpath);
    serve::ServeConfig config;
    config.prcs = 4;
    config.cg = 1;
    config.job_classes = 2;
    config.max_blocks = 8;
    config.macroblocks = 4;
    serve::ServeCore core(config);
    serve::SubmitFrame spec;
    spec.name = "oracle";
    spec.share = static_cast<std::uint8_t>(serve::WireShare::kWeighted);
    spec.weight = 2;
    spec.job_class = 1;
    spec.blocks = 4;
    spec.seed = 9;
    const std::uint64_t id = core.submit(1, spec);
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(core.run_next());
    serve::JobStatusFrame status;
    EXPECT_TRUE(core.status(id, &status));
    return status;
  };
  const serve::JobStatusFrame fast = run_one_job(true);
  const serve::JobStatusFrame oracle = run_one_job(false);
  EXPECT_EQ(fast.state, oracle.state);
  EXPECT_EQ(fast.admitted_at, oracle.admitted_at);
  EXPECT_EQ(fast.finished_at, oracle.finished_at);
  EXPECT_EQ(fast.latency_cycles, oracle.latency_cycles);
  EXPECT_EQ(fast.report_json, oracle.report_json);
  EXPECT_EQ(fast.counters_delta, oracle.counters_delta);
  EXPECT_FALSE(fast.report_json.empty());
  EXPECT_NE(fast.counters_delta.find("ecu.executions"), std::string::npos);
}

TEST(TraceIntegration, TrackNamesAreStable) {
  EXPECT_EQ(track_name(kTrackApp), "application");
  EXPECT_EQ(track_name(kTrackFgBase + 2), "PRC 2");
  EXPECT_EQ(track_name(kTrackCgBase), "CG fabric 0");
}

}  // namespace
}  // namespace mrts
