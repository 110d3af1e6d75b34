// Whole-runtime checkpoint/restore (rts/snapshot.h, format mrts.snapshot.v1):
// a restored run must be bit-identical to the uninterrupted one — cycles,
// trace events, counters and fault statistics — and malformed bytes must
// never crash or partially mutate a live runtime.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "rts/mrts.h"
#include "rts/snapshot.h"
#include "sim/app_simulator.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/snapshot_io.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

std::string jsonl(const TraceRecorder& rec) {
  std::ostringstream os;
  write_trace_jsonl(os, rec.events());
  return os.str();
}

/// One faulty observed run, stoppable mid-flight: everything the split-run
/// tests need to compare against the uninterrupted execution.
struct ObservedRun {
  H264Application app;
  MRtsConfig config;
  MRts rts;
  TraceRecorder rec;
  CounterRegistry ctr;
  AppRunProgress progress;

  static MRtsConfig faulty_config(std::uint64_t fault_seed = 7) {
    MRtsConfig c;
    c.fault = FaultModelConfig::uniform(0.05, fault_seed);
    return c;
  }

  explicit ObservedRun(std::uint64_t fault_seed = 7)
      : app(build_h264_application([] {
          H264AppParams p;
          p.frames = 2;
          return p;
        }())),
        config(faulty_config(fault_seed)),
        rts(app.library, 1, 4, config) {
    rts.attach_observability(&rec, &ctr);
  }

  /// Runs until the cycle cursor passes \p stop (kNeverCycles = to the end).
  bool run(Cycles stop = kNeverCycles) {
    return run_application_portion(rts, app.trace, progress, &rec, stop);
  }
};

CheckpointMeta test_meta() {
  CheckpointMeta meta;
  meta.app = "h264";
  meta.prcs = 4;
  meta.cg = 1;
  meta.frames = 2;
  meta.fault = ObservedRun::faulty_config().fault;
  meta.trace_path = "out/trace.jsonl";
  meta.report_path = "out/report.csv";
  meta.checkpoint_every = 123456;
  meta.checkpoint_path = "out/run.snapshot";
  meta.sequence = 3;
  return meta;
}

TEST(Snapshot, MetaHeaderRoundTrips) {
  ObservedRun run;
  const CheckpointMeta meta = test_meta();
  const std::vector<std::uint8_t> bytes =
      build_snapshot(meta, run.rts, run.progress, &run.rec, &run.ctr);
  const CheckpointMeta back = read_snapshot_meta(bytes);
  EXPECT_EQ(back.app, meta.app);
  EXPECT_EQ(back.prcs, meta.prcs);
  EXPECT_EQ(back.cg, meta.cg);
  EXPECT_EQ(back.frames, meta.frames);
  EXPECT_EQ(back.fault.seed, meta.fault.seed);
  EXPECT_DOUBLE_EQ(back.fault.fg_load_failure_prob,
                   meta.fault.fg_load_failure_prob);
  EXPECT_EQ(back.fault.max_retries, meta.fault.max_retries);
  EXPECT_EQ(back.trace_path, meta.trace_path);
  EXPECT_EQ(back.report_path, meta.report_path);
  EXPECT_EQ(back.checkpoint_every, meta.checkpoint_every);
  EXPECT_EQ(back.checkpoint_path, meta.checkpoint_path);
  EXPECT_EQ(back.sequence, meta.sequence);
}

TEST(Snapshot, SplitRunEqualsWholeRunWithFaults) {
  // Reference: the uninterrupted observed run.
  ObservedRun whole;
  ASSERT_TRUE(whole.run());
  ASSERT_GT(whole.progress.partial.total_cycles, 0u);

  // Checkpointed run: stop near the middle, snapshot, throw the process
  // state away (fresh MRts + streams) and restore.
  ObservedRun half;
  ASSERT_FALSE(half.run(whole.progress.partial.total_cycles / 2));
  ASSERT_TRUE(half.progress.started());
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  ObservedRun resumed;
  apply_snapshot(bytes, resumed.rts, resumed.progress, &resumed.rec,
                 &resumed.ctr);
  ASSERT_TRUE(resumed.progress.started());
  ASSERT_TRUE(resumed.run());

  // Bit-identical resume: cycles, per-block latencies, trace, counters.
  EXPECT_EQ(resumed.progress.partial.total_cycles,
            whole.progress.partial.total_cycles);
  EXPECT_EQ(resumed.progress.partial.block_cycles,
            whole.progress.partial.block_cycles);
  EXPECT_EQ(resumed.progress.partial.impl_executions,
            whole.progress.partial.impl_executions);
  EXPECT_EQ(jsonl(resumed.rec), jsonl(whole.rec));
  EXPECT_EQ(resumed.ctr.counters(), whole.ctr.counters());

  // Satellite: fault statistics and the fault RNG stream resume exactly —
  // the restored run draws the same faults the uninterrupted one did.
  ASSERT_NE(whole.rts.fault_model(), nullptr);
  ASSERT_NE(resumed.rts.fault_model(), nullptr);
  const FaultStats& a = whole.rts.fault_model()->stats();
  const FaultStats& b = resumed.rts.fault_model()->stats();
  EXPECT_EQ(b.injected, a.injected);
  EXPECT_EQ(b.load_failures, a.load_failures);
  EXPECT_EQ(b.retries, a.retries);
  EXPECT_EQ(b.failed_loads, a.failed_loads);
  EXPECT_EQ(b.transient_upsets, a.transient_upsets);
  EXPECT_EQ(b.scrub_repairs, a.scrub_repairs);
  EXPECT_EQ(b.quarantined_prcs, a.quarantined_prcs);
  EXPECT_EQ(b.quarantined_cg, a.quarantined_cg);
}

TEST(Snapshot, RestoreOverAFinishedRunEqualsAFreshRestore) {
  // Applying a snapshot to a runtime that already ran (with a different
  // fault stream) must behave exactly like applying it to a fresh one. The
  // restored fabric state epoch can be lower than the live one, so every
  // epoch-keyed cache of the discarded history has to go with it.
  ObservedRun whole;
  ASSERT_TRUE(whole.run());
  const Cycles total = whole.progress.partial.total_cycles;
  for (const Cycles cut : {total / 4, total / 2, 3 * total / 4}) {
    ObservedRun half;
    ASSERT_FALSE(half.run(cut));
    const std::vector<std::uint8_t> bytes = build_snapshot(
        test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

    ObservedRun fresh;
    apply_snapshot(bytes, fresh.rts, fresh.progress, &fresh.rec, &fresh.ctr);
    ASSERT_TRUE(fresh.run());

    for (std::uint64_t seed = 8; seed <= 11; ++seed) {
      ObservedRun reused(seed);
      ASSERT_TRUE(reused.run());
      apply_snapshot(bytes, reused.rts, reused.progress, &reused.rec,
                     &reused.ctr);
      ASSERT_TRUE(reused.run());
      const std::string what =
          "cut " + std::to_string(cut) + " seed " + std::to_string(seed);
      EXPECT_EQ(reused.progress.partial.total_cycles,
                fresh.progress.partial.total_cycles)
          << what;
      EXPECT_EQ(reused.progress.partial.block_cycles,
                fresh.progress.partial.block_cycles)
          << what;
      EXPECT_EQ(reused.progress.partial.impl_executions,
                fresh.progress.partial.impl_executions)
          << what;
      EXPECT_EQ(jsonl(reused.rec), jsonl(fresh.rec)) << what;
      EXPECT_EQ(reused.ctr.counters(), fresh.ctr.counters()) << what;
    }
    // The fresh restore itself still equals the uninterrupted run.
    EXPECT_EQ(fresh.progress.partial.total_cycles, total);
    EXPECT_EQ(jsonl(fresh.rec), jsonl(whole.rec));
  }
}

TEST(Snapshot, RestoreMarkerIsOptInOnly) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  ObservedRun resumed;
  TraceRecorder marker;
  apply_snapshot(bytes, resumed.rts, resumed.progress, &resumed.rec,
                 &resumed.ctr, &marker);
  // The resumed recorder holds exactly the checkpointed prefix (no
  // kSnapshotRestore pollution — that would break trace bit-identity); the
  // side-channel marker recorder gets the one restore event.
  EXPECT_EQ(jsonl(resumed.rec), jsonl(half.rec));
  ASSERT_EQ(marker.events().size(), 1u);
  EXPECT_EQ(marker.events()[0].kind, TraceEventKind::kSnapshotRestore);
}

TEST(Snapshot, EveryTruncationIsRejectedWithoutMutation) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);
  ASSERT_GT(bytes.size(), 24u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    EXPECT_THROW(read_snapshot_meta(prefix), SnapshotError)
        << "prefix of " << len << " bytes must be rejected";
  }

  // A truncated apply must leave the runtime untouched: the resumed run
  // from the intact image is still bit-identical afterwards.
  ObservedRun resumed;
  const std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + bytes.size() / 2);
  EXPECT_THROW(apply_snapshot(cut, resumed.rts, resumed.progress,
                              &resumed.rec, &resumed.ctr),
               SnapshotError);
  EXPECT_FALSE(resumed.progress.started());
  apply_snapshot(bytes, resumed.rts, resumed.progress, &resumed.rec,
                 &resumed.ctr);
  EXPECT_EQ(resumed.progress.next_block, half.progress.next_block);
}

TEST(Snapshot, SeededByteFlipFuzzNeverCrashes) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  Rng rng(0xF1A9);
  ObservedRun victim;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> corrupt = bytes;
    const std::size_t pos = rng.next_below(corrupt.size());
    const std::uint8_t bit =
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    corrupt[pos] ^= bit;
    // Header flips fail magic/version/size checks; any payload flip fails
    // the CRC — validated before anything is touched, so the victim runtime
    // stays pristine through all 200 attacks.
    EXPECT_THROW(read_snapshot_meta(corrupt), SnapshotError)
        << "flip of bit " << int(bit) << " at offset " << pos;
    EXPECT_THROW(apply_snapshot(corrupt, victim.rts, victim.progress,
                                &victim.rec, &victim.ctr),
                 SnapshotError);
    EXPECT_FALSE(victim.progress.started());
  }
  // The pristine victim still accepts the intact image.
  apply_snapshot(bytes, victim.rts, victim.progress, &victim.rec,
                 &victim.ctr);
  EXPECT_EQ(victim.progress.next_block, half.progress.next_block);
}

TEST(Snapshot, ErrorsNameTheFailingOffset) {
  ObservedRun run;
  std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), run.rts, run.progress, &run.rec, &run.ctr);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[3] ^= 0xFF;
  try {
    read_snapshot_meta(bad_magic);
    FAIL() << "bad magic must throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_NE(std::string(e.what()).find("offset 3"), std::string::npos);
  }

  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[8] = 0x7F;  // version lives at [8..12)
  try {
    read_snapshot_meta(bad_version);
    FAIL() << "unknown version must throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 8u);
  }
}

TEST(Snapshot, ApplyRejectsMismatchedRuntimeShape) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  // Wrong fabric shape: 2 PRCs instead of the checkpointed 4.
  const H264Application app = build_h264_application([] {
    H264AppParams p;
    p.frames = 2;
    return p;
  }());
  MRts wrong(app.library, 1, 2, ObservedRun::faulty_config());
  TraceRecorder rec;
  CounterRegistry ctr;
  wrong.attach_observability(&rec, &ctr);
  AppRunProgress progress;
  EXPECT_THROW(apply_snapshot(bytes, wrong, progress, &rec, &ctr),
               SnapshotError);
  EXPECT_FALSE(progress.started());
}

TEST(Snapshot, FileRoundTripIsAtomicAndWhole) {
  ObservedRun run;
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), run.rts, run.progress, &run.rec, &run.ctr);
  const std::string path = ::testing::TempDir() + "snapshot_roundtrip.bin";
  ASSERT_TRUE(write_snapshot_file(path, bytes));
  std::vector<std::uint8_t> back;
  std::string error;
  ASSERT_TRUE(read_snapshot_file(path, &back, &error)) << error;
  EXPECT_EQ(back, bytes);
  std::remove(path.c_str());

  EXPECT_FALSE(read_snapshot_file(path + ".missing", &back, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Snapshot, ImageIsBuiltIntoOneExactlySizedBuffer) {
  // The snapshot of a traced run mid-flight: the payload after the runtime
  // state is reserved up front, so the buffer never regrows past its bytes.
  ObservedRun run;
  ASSERT_FALSE(run.run(2'000'000));
  ASSERT_GT(run.rec.size(), 100u);
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), run.rts, run.progress, &run.rec, &run.ctr);
  EXPECT_EQ(bytes.capacity(), bytes.size());
  const std::vector<std::uint8_t> untraced =
      build_snapshot(test_meta(), run.rts, run.progress, nullptr, nullptr);
  EXPECT_EQ(untraced.capacity(), untraced.size());
}

/// The byte-at-a-time CRC-32 the slicing-by-8 version replaced.
std::uint32_t bytewise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SnapshotCrc, MatchesTheBytewiseCrcAtEveryLengthAndAlignment) {
  const std::string check = "123456789";
  EXPECT_EQ(snapshot_crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                           check.size()),
            0xCBF43926u);  // the standard CRC-32 check value
  EXPECT_EQ(snapshot_crc32(nullptr, 0), 0u);
  Rng rng(99);
  std::vector<std::uint8_t> bytes(300);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; offset + size <= bytes.size(); ++size) {
      ASSERT_EQ(snapshot_crc32(bytes.data() + offset, size),
                bytewise_crc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

}  // namespace
}  // namespace mrts
