// Tests of the workload models: content model, schedule generator, the H.264
// application and the Section 2 deblocking-filter case study (Fig. 1 / Fig. 2
// structure).

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "workload/content_model.h"
#include "workload/deblocking_case_study.h"
#include "workload/h264_app.h"
#include "workload/sdr_app.h"
#include "workload/workload_gen.h"

namespace mrts {
namespace {

TEST(ContentModel, DeterministicFromSeed) {
  ContentParams p;
  p.frames = 32;
  p.seed = 77;
  const ContentModel a(p);
  const ContentModel b(p);
  for (unsigned f = 0; f < 32; ++f) {
    EXPECT_DOUBLE_EQ(a.motion(f), b.motion(f));
    EXPECT_DOUBLE_EQ(a.detail(f), b.detail(f));
  }
}

TEST(ContentModel, ValuesStayInUnitInterval) {
  ContentParams p;
  p.frames = 200;
  p.seed = 5;
  const ContentModel m(p);
  for (unsigned f = 0; f < 200; ++f) {
    EXPECT_GE(m.motion(f), 0.0);
    EXPECT_LE(m.motion(f), 1.0);
    EXPECT_GE(m.detail(f), 0.0);
    EXPECT_LE(m.detail(f), 1.0);
  }
}

TEST(ContentModel, ActuallyVaries) {
  ContentParams p;
  p.frames = 64;
  p.seed = 11;
  const ContentModel m(p);
  double lo = 1.0;
  double hi = 0.0;
  for (unsigned f = 0; f < 64; ++f) {
    lo = std::min(lo, m.motion(f));
    hi = std::max(hi, m.motion(f));
  }
  EXPECT_GT(hi - lo, 0.15) << "motion process should vary across frames";
}

TEST(ContentModel, RejectsZeroFrames) {
  ContentParams p;
  p.frames = 0;
  EXPECT_THROW(ContentModel m(p), std::invalid_argument);
}

TEST(ContentModel, OutOfRangeFrameThrows) {
  ContentParams p;
  p.frames = 2;
  const ContentModel m(p);
  EXPECT_THROW(m.motion(2), std::out_of_range);
  EXPECT_THROW(m.detail(99), std::out_of_range);
  EXPECT_THROW(m.scene_change(5), std::out_of_range);
}

TEST(WorkloadGen, MacroblockLoopProducesExpectedCounts) {
  IseLibrary lib;
  const KernelId k = lib.add_kernel("K", 100);
  Rng rng(1);
  const FunctionalBlockInstance inst = make_block_instance(
      FunctionalBlockId{0}, /*macroblocks=*/10,
      {{k, 3.0, 20, 0.0}}, /*entry_gap=*/100, /*tail_gap=*/50, rng);
  EXPECT_EQ(inst.executions_of(k), 30u);
  EXPECT_EQ(inst.tail_gap, 50u);
  // First event carries the entry gap.
  EXPECT_EQ(inst.events.front().gap_before, 120u);
}

TEST(WorkloadGen, FractionalRepetitionsCarryRemainder) {
  IseLibrary lib;
  const KernelId k = lib.add_kernel("K", 100);
  Rng rng(1);
  const FunctionalBlockInstance inst = make_block_instance(
      FunctionalBlockId{0}, 100, {{k, 0.5, 10, 0.0}}, 0, 0, rng);
  EXPECT_EQ(inst.executions_of(k), 50u);
}

TEST(WorkloadGen, GapJitterIsBoundedAndDeterministic) {
  IseLibrary lib;
  const KernelId k = lib.add_kernel("K", 100);
  Rng rng1(7);
  Rng rng2(7);
  const auto a = make_block_instance(FunctionalBlockId{0}, 50,
                                     {{k, 2.0, 100, 0.25}}, 0, 0, rng1);
  const auto b = make_block_instance(FunctionalBlockId{0}, 50,
                                     {{k, 2.0, 100, 0.25}}, 0, 0, rng2);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].gap_before, b.events[i].gap_before);
    EXPECT_GE(a.events[i].gap_before, 75u);
    EXPECT_LE(a.events[i].gap_before, 125u);
  }
}

TEST(WorkloadGen, RejectsInvalidWork) {
  IseLibrary lib;
  const KernelId k = lib.add_kernel("K", 100);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto build = [&](double repetitions, double jitter) {
    Rng rng(1);
    return make_block_instance(FunctionalBlockId{0}, 4,
                               {{k, repetitions, 10, jitter}}, 0, 0, rng);
  };
  for (const double repetitions : {-1.0, -1e-9, nan, inf, -inf, 1e12}) {
    EXPECT_THROW(build(repetitions, 0.1), std::invalid_argument)
        << "repetitions_per_mb " << repetitions;
  }
  for (const double jitter : {-0.1, nan, inf}) {
    EXPECT_THROW(build(1.0, jitter), std::invalid_argument)
        << "gap_jitter " << jitter;
  }
  // The edges of the valid range stay accepted.
  EXPECT_TRUE(build(0.0, 0.0).events.empty());
  EXPECT_EQ(build(2.0, 1.5).events.size(), 8u);
}

void expect_runs_of_events(const ApplicationTrace& trace,
                           const std::string& what) {
  ASSERT_FALSE(trace.blocks.empty()) << what;
  for (std::size_t b = 0; b < trace.blocks.size(); ++b) {
    const FunctionalBlockInstance& inst = trace.blocks[b];
    std::vector<ExecRun> decoded;
    decode_runs(inst.events, decoded);
    ASSERT_EQ(inst.runs.size(), decoded.size()) << what << " block " << b;
    for (std::size_t r = 0; r < decoded.size(); ++r) {
      EXPECT_EQ(inst.runs[r].kernel, decoded[r].kernel) << what << " " << r;
      EXPECT_EQ(inst.runs[r].first_event, decoded[r].first_event)
          << what << " " << r;
      EXPECT_EQ(inst.runs[r].count, decoded[r].count) << what << " " << r;
      EXPECT_EQ(inst.runs[r].gap_total, decoded[r].gap_total)
          << what << " " << r;
      EXPECT_EQ(inst.runs[r].first_gap, decoded[r].first_gap)
          << what << " " << r;
    }
    // The event array was reserved once, at its exact size.
    EXPECT_EQ(inst.events.capacity(), inst.events.size())
        << what << " block " << b;
  }
}

TEST(WorkloadGen, RunsAreBuiltWithTheEvents) {
  H264AppParams h264;
  h264.frames = 3;
  expect_runs_of_events(build_h264_application(h264).trace, "h264");
  SdrAppParams sdr;
  sdr.bursts = 3;
  expect_runs_of_events(build_sdr_application(sdr).trace, "sdr");

  // Adjacent work entries of one kernel, and a kernel whose fractional
  // repetitions leave macroblocks without it, merge runs across entries.
  IseLibrary lib;
  const KernelId a = lib.add_kernel("A", 100);
  const KernelId b = lib.add_kernel("B", 100);
  Rng rng(3);
  ApplicationTrace synthetic;
  synthetic.blocks.push_back(make_block_instance(
      FunctionalBlockId{0}, 40, {{a, 0.3, 10, 0.2}, {b, 1.5, 0, 0.2},
                                 {b, 0.5, 7, 0.1}, {a, 2.0, 3, 0.0}},
      50, 0, rng));
  expect_runs_of_events(synthetic, "synthetic");
}

TEST(H264App, ThreeBlocksPerFrameInOrder) {
  H264AppParams params;
  params.frames = 4;
  const H264Application app = build_h264_application(params);
  ASSERT_EQ(app.trace.blocks.size(), 12u);
  for (unsigned f = 0; f < 4; ++f) {
    EXPECT_EQ(app.trace.blocks[f * 3 + 0].functional_block, app.fb_me);
    EXPECT_EQ(app.trace.blocks[f * 3 + 1].functional_block, app.fb_ee);
    EXPECT_EQ(app.trace.blocks[f * 3 + 2].functional_block, app.fb_lf);
  }
}

TEST(H264App, TwelveKernelsWithIseFamilies) {
  const H264Application app = build_h264_application({});
  EXPECT_EQ(app.library.num_kernels(), 12u);
  for (const KernelId k : app.all_kernels()) {
    EXPECT_FALSE(app.library.kernel(k).ises.empty());
    EXPECT_TRUE(app.library.kernel(k).has_mono_cg());
  }
  // The encoding engine block has six kernels (the paper: "the biggest one
  // contains more than six kernels").
  const auto& ee = app.trace.blocks[1];
  std::set<std::uint32_t> seen;
  for (const auto& ev : ee.events) seen.insert(raw(ev.kernel));
  EXPECT_EQ(seen.size(), 6u);
}

TEST(H264App, DeterministicFromSeed) {
  H264AppParams params;
  params.frames = 3;
  const H264Application a = build_h264_application(params);
  const H264Application b = build_h264_application(params);
  ASSERT_EQ(a.trace.blocks.size(), b.trace.blocks.size());
  for (std::size_t i = 0; i < a.trace.blocks.size(); ++i) {
    ASSERT_EQ(a.trace.blocks[i].events.size(), b.trace.blocks[i].events.size());
  }
}

TEST(H264App, ExecutionCountsVaryAcrossFrames) {
  // This is the Fig. 2 property: the per-frame execution count of the
  // deblocking-filter kernel changes with the content.
  H264AppParams params;
  params.frames = 16;
  const H264Application app = build_h264_application(params);
  std::set<std::size_t> distinct;
  std::size_t lo = SIZE_MAX;
  std::size_t hi = 0;
  for (unsigned f = 0; f < 16; ++f) {
    const std::size_t e = app.lf_filter_executions(f);
    distinct.insert(e);
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  EXPECT_GE(distinct.size(), 8u);
  EXPECT_GT(hi, lo + lo / 10) << "at least ~10% swing between frames";
}

TEST(H264App, ProgrammedTriggersAreSharedAcrossInstances) {
  H264AppParams params;
  params.frames = 3;
  const H264Application app = build_h264_application(params);
  const auto& first_lf = app.trace.blocks[2].programmed;
  const auto& later_lf = app.trace.blocks[8].programmed;
  ASSERT_EQ(first_lf.entries.size(), later_lf.entries.size());
  for (std::size_t i = 0; i < first_lf.entries.size(); ++i) {
    EXPECT_EQ(first_lf.entries[i], later_lf.entries[i]);
  }
}

TEST(H264App, WorkloadScaleScalesExecutions) {
  H264AppParams small;
  small.frames = 2;
  small.workload_scale = 0.5;
  H264AppParams big;
  big.frames = 2;
  big.workload_scale = 1.0;
  const auto s = build_h264_application(small);
  const auto b = build_h264_application(big);
  EXPECT_LT(s.trace.total_events(), b.trace.total_events());
}

// --- Deblocking case study (Section 2, Fig. 1) ------------------------------

TEST(DeblockingCaseStudy, ThreeIsesWithPaperStructure) {
  const DeblockingCaseStudy cs = build_deblocking_case_study();
  const IseVariant& i1 = cs.library.ise(cs.ise1);
  const IseVariant& i2 = cs.library.ise(cs.ise2);
  const IseVariant& i3 = cs.library.ise(cs.ise3);
  EXPECT_TRUE(i1.is_fg_only());
  EXPECT_TRUE(i2.is_cg_only());
  EXPECT_TRUE(i3.is_multi_grained());
  // Execution speed: FG fastest, CG slowest accelerated, MG in between.
  EXPECT_LT(i1.full_latency(), i3.full_latency());
  EXPECT_LT(i3.full_latency(), i2.full_latency());
  // Reconfiguration: CG in microseconds, FG in milliseconds.
  const auto& table = cs.library.data_paths();
  EXPECT_LT(i2.worst_case_reconfig_cycles(table), us_to_cycles(1.0));
  EXPECT_GT(i1.worst_case_reconfig_cycles(table), ms_to_cycles(2.0));
}

TEST(DeblockingCaseStudy, PifRegionsAppearInPaperOrder) {
  // Fig. 1: ISE-2 (CG) dominates for few executions, ISE-3 (MG) in the
  // middle, ISE-1 (FG) for many executions.
  const DeblockingCaseStudy cs = build_deblocking_case_study();
  auto best_at = [&cs](double n) {
    const double p1 = case_study_pif(cs, cs.ise1, n);
    const double p2 = case_study_pif(cs, cs.ise2, n);
    const double p3 = case_study_pif(cs, cs.ise3, n);
    if (p1 >= p2 && p1 >= p3) return 1;
    if (p2 >= p1 && p2 >= p3) return 2;
    return 3;
  };
  EXPECT_EQ(best_at(500), 2);
  EXPECT_EQ(best_at(2000), 2);
  EXPECT_EQ(best_at(4000), 3);
  EXPECT_EQ(best_at(6000), 3);
  EXPECT_EQ(best_at(9000), 1);
}

TEST(DeblockingCaseStudy, CrossoversAreOrdered) {
  const DeblockingCaseStudy cs = build_deblocking_case_study();
  const double mg_over_cg = pif_crossover(cs, cs.ise3, cs.ise2);
  const double fg_over_mg = pif_crossover(cs, cs.ise1, cs.ise3);
  EXPECT_GT(mg_over_cg, 1000.0);
  EXPECT_LT(mg_over_cg, 5000.0);
  EXPECT_GT(fg_over_mg, mg_over_cg);
  EXPECT_LT(fg_over_mg, 10'000.0);
}

TEST(DeblockingCaseStudy, PifIsMonotoneInExecutions) {
  const DeblockingCaseStudy cs = build_deblocking_case_study();
  for (IseId ise : {cs.ise1, cs.ise2, cs.ise3}) {
    double prev = 0.0;
    for (double n = 100; n <= 10'000; n += 100) {
      const double pif = case_study_pif(cs, ise, n);
      EXPECT_GE(pif, prev);
      prev = pif;
    }
  }
}

}  // namespace
}  // namespace mrts
