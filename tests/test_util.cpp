// Unit tests for src/util: RNG, statistics, CSV/table writers, the shared
// number formatter and append buffer, and the cycle-conversion helpers in
// types.h.

#include <gtest/gtest.h>

#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>

#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/text_buffer.h"
#include "util/types.h"

namespace mrts {
namespace {

TEST(Types, ClockConstantsMatchPaper) {
  // Section 5.1: core/CG at 400 MHz, FG at 100 MHz.
  EXPECT_DOUBLE_EQ(kCoreClockHz, 400.0e6);
  EXPECT_DOUBLE_EQ(kFgClockHz, 100.0e6);
  EXPECT_EQ(kFgClockRatio, 4u);
}

TEST(Types, MsToCyclesRoundTrip) {
  EXPECT_EQ(ms_to_cycles(1.0), 400'000u);
  EXPECT_EQ(us_to_cycles(1.0), 400u);
  EXPECT_NEAR(cycles_to_ms(400'000), 1.0, 1e-12);
}

TEST(Types, FgReconfigBandwidthMatchesPaper) {
  // 67584 KB/s: streaming ~83 KB takes ~1.2 ms = ~480k core cycles.
  const Cycles c = fg_reconfig_cycles_for_bytes(83047);
  EXPECT_NEAR(static_cast<double>(c), 480'000.0, 2'000.0);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowIsUnbiasedEnough) {
  Rng rng(99);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.next_below(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Ewma, BackPropagationMovesTowardObservation) {
  Ewma e(0.5, 100.0);
  e.observe(200.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 150.0);
  e.observe(200.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 175.0);
}

TEST(Ewma, AlphaOneTracksExactly) {
  Ewma e(1.0, 0.0);
  e.observe(42.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 42.0);
}

TEST(Ewma, ConvergesToConstantSignal) {
  Ewma e(0.3, 0.0);
  for (int i = 0; i < 100; ++i) e.observe(10.0);
  EXPECT_NEAR(e.prediction(), 10.0, 1e-6);
}

TEST(Ewma, AlphaZeroClampsToTinyGain) {
  // alpha <= 0 would freeze the forecast forever; the constructor clamps it
  // to a tiny positive gain instead, so the first observation still nudges
  // the prediction (by alpha * error) rather than being discarded.
  Ewma e(0.0, 100.0);
  EXPECT_DOUBLE_EQ(e.alpha(), 1e-6);
  e.observe(200.0);
  EXPECT_NEAR(e.prediction(), 100.0001, 1e-9);
  EXPECT_EQ(e.observations(), 1u);
}

TEST(Ewma, AlphaOneFirstObservationReplacesInitial) {
  // alpha == 1 is pure tracking: the very first observation overwrites
  // whatever initial prediction the forecast was seeded with.
  Ewma e(1.0, 12345.0);
  EXPECT_DOUBLE_EQ(e.alpha(), 1.0);
  e.observe(-7.5);
  EXPECT_DOUBLE_EQ(e.prediction(), -7.5);
}

TEST(Ewma, AlphaAboveOneClampsToOne) {
  // Gains above 1 would overshoot (oscillate around the signal); they clamp
  // to exact tracking.
  Ewma e(2.5, 10.0);
  EXPECT_DOUBLE_EQ(e.alpha(), 1.0);
  e.observe(20.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 20.0);
}

TEST(Logging, FormatLogLinePinsLayout) {
  // 1234567890 s since the epoch = 2009-02-13 23:31:30 UTC. The format is
  // part of the logger's contract: timestamp (UTC, millisecond), worker
  // tag, level, component, message.
  EXPECT_EQ(format_log_line(1234567890123, "w03", LogLevel::kWarn, "ecu",
                            "impl switched"),
            "[2009-02-13 23:31:30.123] [w03] [WARN] ecu: impl switched");
  EXPECT_EQ(format_log_line(45, "w00", LogLevel::kError, "mpu", ""),
            "[1970-01-01 00:00:00.045] [w00] [ERROR] mpu: ");
}

TEST(Logging, ThreadTagIsStablePerThread) {
  const std::string& tag = log_thread_tag();
  ASSERT_EQ(tag.size(), 3u);
  EXPECT_EQ(tag[0], 'w');
  EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(tag[1])));
  EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(tag[2])));
  // Same thread -> same tag object, every time.
  EXPECT_EQ(&tag, &log_thread_tag());
}

TEST(Means, GeometricAndArithmetic) {
  EXPECT_DOUBLE_EQ(geometric_mean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(arithmetic_mean({2.0, 8.0}), 5.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 0.0}), 0.0);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, EscapesCarriageReturns) {
  // RFC 4180: any cell containing CR (not just LF) must be quoted, or a
  // bare \r corrupts the row structure for strict readers.
  EXPECT_EQ(CsvWriter::escape("a\rb"), "\"a\rb\"");
  EXPECT_EQ(CsvWriter::escape("a\r\nb"), "\"a\r\nb\"");
  EXPECT_EQ(CsvWriter::escape("\r"), "\"\r\"");
}

TEST(Csv, InMemoryRows) {
  CsvWriter csv;
  csv.write_header({"a", "b"});
  csv.write_values(1, 2.5);
  EXPECT_EQ(csv.str(), "a,b\n1,2.5\n");
}

TEST(Csv, IntegralDoublesKeepEveryDigit) {
  // Bare %.10g silently rounded integral cycle counts above ~2^33 to ten
  // significant digits. Integral doubles are exact up to 2^53 and must
  // round-trip byte-for-byte through the CSV layer.
  EXPECT_EQ(CsvWriter::to_cell(1099511627777.0), "1099511627777");  // 2^40+1
  EXPECT_EQ(CsvWriter::to_cell(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(CsvWriter::to_cell(0.0), "0");
  EXPECT_EQ(CsvWriter::to_cell(-42.0), "-42");
  // Non-integral values keep the historical %.10g form — the committed
  // figure CSVs depend on its rounding (e.g. fig11's fairness column).
  EXPECT_EQ(CsvWriter::to_cell(2.5), "2.5");
  EXPECT_EQ(CsvWriter::to_cell(3.0596940034), "3.059694003");
}

// ---------------------------------------------------------------------------
// The shared number formatter (util/text_buffer.h) against the printf
// conversions it replaces: the committed CSVs, traces and reports were
// written with snprintf "%.0f" (integral doubles below 2^53) and "%.10g"
// (everything else), so every byte must agree.

std::string printf_reference(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) < 9007199254740992.0 /* 2^53 */) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  return buf;
}

std::string formatted(double v) {
  char buf[kNumberChars];
  return std::string(buf, format_number(buf, v));
}

std::string json_formatted(double v) {
  std::ostringstream os;
  TextBuffer(os).json_number(v);
  return os.str();
}

TEST(NumberFormat, MatchesPrintfOnEdgeValues) {
  constexpr double kTwo53 = 9007199254740992.0;
  const double values[] = {
      kTwo53, -kTwo53, kTwo53 - 1, -(kTwo53 - 1),
      std::nextafter(kTwo53, 0.0), std::nextafter(kTwo53, INFINITY),
      kTwo53 + 2, kTwo53 * 2, 0.0, -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, -DBL_MIN,
      DBL_MAX, -DBL_MAX, 1e300, -1e300, 1e16, 1e17, 123456789012345678.0,
      0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.5, 2.5, 1e-5, 1e-4, 9.9999999995,
      0.0000152587890625,
      // Exact binary values with 11 significant digits ending in 5: ties
      // at the 10-digit rounding.
      123456789.25, 123456789.75, 12345678.125, 12345678.375, 1234567890.5,
      1234567891.5, -123456789.25,
      // The values a trace actually carries: cycle * 0.0025 us timestamps.
      0.0025, 2.5e-3 * 1234567, 2.5e-3 * 15000001, 9999999999.5,
      99999999995.0, 4294967295.0, 18446744073709551616.0};
  for (const double v : values) {
    EXPECT_EQ(formatted(v), printf_reference(v)) << "bits of " << v;
  }
}

TEST(NumberFormat, MatchesPrintfOnSeededRandomBitPatterns) {
  std::mt19937_64 gen(20261019);
  std::uniform_real_distribution<double> near(-1.0e6, 1.0e6);
  std::uniform_int_distribution<std::int64_t> cycles(0, std::int64_t{1} << 40);
  for (int i = 0; i < 200000; ++i) {
    double v = 0.0;
    switch (i % 4) {
      case 0: {  // any bit pattern: every exponent, subnormals, inf, nan
        const std::uint64_t bits = gen();
        std::memcpy(&v, &bits, sizeof v);
        break;
      }
      case 1: v = near(gen); break;
      case 2: v = static_cast<double>(cycles(gen)); break;
      default: v = static_cast<double>(cycles(gen)) * 0.0025; break;
    }
    ASSERT_EQ(formatted(v), printf_reference(v)) << "iteration " << i;
  }
}

TEST(NumberFormat, NonFiniteFollowsTheWritersRule) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // CSV: what printf prints.
  for (const double v : {inf, -inf, nan, -nan}) {
    EXPECT_EQ(CsvWriter::to_cell(v), printf_reference(v));
  }
  EXPECT_EQ(CsvWriter::to_cell(inf), "inf");
  EXPECT_EQ(CsvWriter::to_cell(-inf), "-inf");
  EXPECT_EQ(CsvWriter::to_cell(nan), "nan");
  // JSON has no inf/nan literals: 0.
  for (const double v : {inf, -inf, nan, -nan}) {
    EXPECT_EQ(json_formatted(v), "0");
  }
  EXPECT_EQ(json_formatted(-0.0), "-0");
  EXPECT_EQ(json_formatted(0.1), "0.1");
}

TEST(TextBuffer, FlushesToTheSinkInChunks) {
  std::ostringstream os;
  std::string expected;
  {
    TextBuffer out(os);
    const std::string line = "{\"at\":12345,\"v0\":0.0025}\n";
    while (expected.size() < 3 * TextBuffer::kChunkBytes) {
      out << line;
      expected += line;
    }
    // Whole chunks have reached the sink; at most one chunk is held back.
    EXPECT_GE(os.str().size(), expected.size() - TextBuffer::kChunkBytes);
    EXPECT_LT(os.str().size(), expected.size());
    // Text longer than a chunk passes straight through, in order.
    const std::string big(TextBuffer::kChunkBytes + 7, 'x');
    out << big << 'y' << std::uint64_t{18446744073709551615u}
        << std::int32_t{-5};
    expected += big + "y18446744073709551615-5";
  }
  EXPECT_EQ(os.str(), expected);
}

TEST(TextBuffer, JsonEscapedMatchesTheJsonRules) {
  std::ostringstream os;
  TextBuffer(os).json_escaped("a\"b\\c\nd\re\tf\x01g\x1fh\x7f\xc3\xa9");
  EXPECT_EQ(os.str(), "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\x7f\xc3\xa9");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_values("x", 1);
  t.add_values("longer", 23);
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_mcycles(12'340'000), "12.34");
}

}  // namespace
}  // namespace mrts
