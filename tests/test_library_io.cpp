// Tests for the ISE-library text format: round-trip fidelity, diagnostics
// and validation on load.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "isa/ise_builder.h"
#include "isa/library_io.h"
#include "util/rng.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

void expect_equivalent(const IseLibrary& a, const IseLibrary& b) {
  ASSERT_EQ(a.data_paths().size(), b.data_paths().size());
  for (std::size_t i = 0; i < a.data_paths().size(); ++i) {
    const auto& da = a.data_paths()[DataPathId{static_cast<std::uint32_t>(i)}];
    const auto& db = b.data_paths()[DataPathId{static_cast<std::uint32_t>(i)}];
    EXPECT_EQ(da.name, db.name);
    EXPECT_EQ(da.grain, db.grain);
    EXPECT_EQ(da.units, db.units);
    EXPECT_EQ(da.reconfig_cycles(), db.reconfig_cycles());
  }
  ASSERT_EQ(a.num_kernels(), b.num_kernels());
  for (const auto& ka : a.kernels()) {
    const KernelId kb = b.find_kernel(ka.name);
    ASSERT_NE(kb, kInvalidKernel) << ka.name;
    EXPECT_EQ(b.kernel(kb).sw_latency, ka.sw_latency);
    EXPECT_EQ(b.kernel(kb).ises.size(), ka.ises.size());
    EXPECT_EQ(b.kernel(kb).has_mono_cg(), ka.has_mono_cg());
  }
  ASSERT_EQ(a.num_ises(), b.num_ises());
  for (const auto& ia : a.ises()) {
    const IseId ib_id = b.find_ise(ia.name);
    ASSERT_NE(ib_id, kInvalidIse) << ia.name;
    const IseVariant& ib = b.ise(ib_id);
    EXPECT_EQ(ib.latency_after, ia.latency_after) << ia.name;
    EXPECT_EQ(ib.data_paths.size(), ia.data_paths.size()) << ia.name;
    EXPECT_EQ(ib.is_mono_cg, ia.is_mono_cg) << ia.name;
    EXPECT_EQ(ib.fg_units, ia.fg_units) << ia.name;
    EXPECT_EQ(ib.cg_units, ia.cg_units) << ia.name;
  }
}

TEST(LibraryIo, RoundTripsTheFullH264Library) {
  const H264Application app = build_h264_application({});
  const std::string text = serialize_library(app.library);
  const IseLibrary parsed = parse_library(text);
  expect_equivalent(app.library, parsed);
  // Serialization is a fixed point.
  EXPECT_EQ(serialize_library(parsed), text);
}

TEST(LibraryIo, ParsesHandWrittenLibrary) {
  const IseLibrary lib = parse_library(R"(
# a tiny library
datapath cond_fg FG units=1 bitstream=83047
datapath filt_cg CG units=1 ctx=30
kernel DBF sw=1000
ise DBF.MG kernel=DBF dps=filt_cg,cond_fg lat=1000,560,170
ise DBF.mono kernel=DBF mono dps=filt_cg lat=1000,520
)");
  EXPECT_EQ(lib.num_kernels(), 1u);
  EXPECT_EQ(lib.num_ises(), 2u);
  const IseVariant& mg = lib.ise(lib.find_ise("DBF.MG"));
  EXPECT_TRUE(mg.is_multi_grained());
  EXPECT_EQ(mg.full_latency(), 170u);
  EXPECT_TRUE(lib.kernel(lib.find_kernel("DBF")).has_mono_cg());
}

TEST(LibraryIo, DiagnosticsCarryLineNumbers) {
  try {
    parse_library("kernel K sw=100\nbogus directive\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(LibraryIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_library("datapath x XX\n"), std::invalid_argument);
  EXPECT_THROW(parse_library("kernel K\n"), std::invalid_argument);
  EXPECT_THROW(parse_library("ise I kernel=K dps=a lat=1,2\n"),
               std::invalid_argument);  // unknown kernel
  EXPECT_THROW(parse_library("kernel K sw=10\n"
                             "ise I kernel=K dps=missing lat=10,5\n"),
               std::invalid_argument);  // unknown data path
  EXPECT_THROW(parse_library("datapath d FG\nkernel K sw=10\n"
                             "ise I kernel=K dps=d lat=10,20\n"),
               std::invalid_argument);  // increasing latency (validation)
  EXPECT_THROW(parse_library("datapath d FG nonsense=1\n"),
               std::invalid_argument);
}

TEST(LibraryIo, NumbersParseInFullAndFitTheirField) {
  // std::stoull read "1x" as 1 and "-1" as 2^64-1; each now fails its line.
  const std::string dp = "datapath dp0 FG units=1 bitstream=83047\n";
  const std::string kernel = "kernel sad sw=520\n";
  const std::string ise = "ise sad_v1 kernel=sad dps=dp0 lat=520,100\n";
  struct Case {
    std::string text;
    const char* named;
  };
  const Case cases[] = {
      {"datapath dp0 FG units=1x bitstream=83047\n" + kernel + ise,
       "line 1: bad number '1x'"},
      {"datapath dp0 FG units=4294967296\n" + kernel + ise,
       "line 1: bad number '4294967296'"},
      {dp + "kernel sad sw=-1\n" +
           "ise sad_v1 kernel=sad dps=dp0 lat=18446744073709551615,100\n",
       "line 2: bad number '-1'"},
      {dp + "kernel sad sw=18446744073709551616\n" + ise,
       "line 2: bad number '18446744073709551616'"},
      {dp + "kernel sad sw=+520\n" + ise, "line 2: bad number '+520'"},
      {dp + kernel + "ise sad_v1 kernel=sad dps=dp0 lat=520,100x\n",
       "line 3: bad number '100x'"},
      {dp + kernel + "ise sad_v1 kernel=sad dps=dp0 lat=520,\n",
       "line 3: bad number ''"},
  };
  EXPECT_NO_THROW(parse_library(dp + kernel + ise));
  for (const Case& c : cases) {
    try {
      parse_library(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos)
          << e.what();
    }
  }
}

// Fuzz: every prefix and seeded byte mutations of a real library file never
// crash the parser, and the only failure it reports is std::invalid_argument.
bool parses_or_rejects(const std::string& text) {
  try {
    parse_library(text);
  } catch (const std::invalid_argument&) {
  } catch (...) {
    return false;
  }
  return true;
}

TEST(LibraryIoFuzz, EveryPrefixParsesOrIsRejected) {
  const std::string text =
      serialize_library(build_h264_application({}).library);
  for (std::size_t n = 0; n <= text.size(); ++n) {
    ASSERT_TRUE(parses_or_rejects(text.substr(0, n))) << "prefix " << n;
  }
}

TEST(LibraryIoFuzz, SeededByteMutationsParseOrAreRejected) {
  const std::string text =
      serialize_library(build_h264_application({}).library);
  // Replacement bytes lean towards the format's own alphabet so mutations
  // reach the number and attribute parsers, not just the directive check.
  const std::string alphabet = "0123456789=,-+ x\n#.eFGC\xff";
  Rng rng(20261020);
  for (int round = 0; round < 2000; ++round) {
    std::string copy = text;
    const std::size_t edits = 1 + rng.next_below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.next_below(copy.size());
      switch (rng.next_below(3)) {
        case 0:
          copy[pos] = alphabet[rng.next_below(alphabet.size())];
          break;
        case 1:
          copy.insert(pos, 1, alphabet[rng.next_below(alphabet.size())]);
          break;
        default:
          copy.erase(pos, 1);
          break;
      }
    }
    ASSERT_TRUE(parses_or_rejects(copy)) << "round " << round << ":\n"
                                         << copy;
  }
}

TEST(LibraryIo, SaveAndLoadFile) {
  IseLibrary lib;
  IseBuildSpec spec;
  spec.kernel_name = "K";
  spec.sw_latency = 500;
  spec.fg_data_path_names = {"k_fg"};
  spec.cg_data_path_names = {"k_cg"};
  build_kernel_ises(lib, spec);

  const std::string path = ::testing::TempDir() + "/mrts_lib_test.txt";
  save_library(lib, path);
  const IseLibrary loaded = load_library(path);
  expect_equivalent(lib, loaded);
  std::remove(path.c_str());
}

TEST(LibraryIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_library("/nonexistent/dir/lib.txt"), std::runtime_error);
}

}  // namespace
}  // namespace mrts
