// Tests for the declarative CLI flag tables (util/cli_spec.h). The tables
// are the single source of truth for every binary: CliSpec::parse walks the
// command line against them and --help is rendered from them, so these
// tests pin the rendering/lookup contract that keeps help text and accepted
// flags in lockstep, the one argument grammar and the typed reads.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/cli_spec.h"

namespace mrts {
namespace {

CliSpec make_spec() {
  CliSpec spec("toolbin", "does tool things",
               "exit codes: 0 success, 1 usage error, 2 input error");
  CliVerb& run = spec.add_verb("run", "<app> [n]", "run an app");
  run.flags = {
      {"--trace", "<file>", "write a trace"},
      {"--fast", "", "skip the slow path"},
  };
  spec.add_verb("list", "", "list things");
  return spec;
}

TEST(CliSpec, VerbAndFlagLookup) {
  const CliSpec spec = make_spec();
  ASSERT_NE(spec.verb("run"), nullptr);
  ASSERT_NE(spec.verb("list"), nullptr);
  EXPECT_EQ(spec.verb("nope"), nullptr);

  const CliVerb& run = *spec.verb("run");
  const CliFlag* trace = CliSpec::flag(run, "--trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->value, "<file>");  // takes a value
  const CliFlag* fast = CliSpec::flag(run, "--fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_TRUE(fast->value.empty());  // boolean flag
  // Unknown flags are a lookup miss, which the binaries turn into usage().
  EXPECT_EQ(CliSpec::flag(run, "--bogus"), nullptr);
  EXPECT_EQ(CliSpec::flag(*spec.verb("list"), "--trace"), nullptr);
}

TEST(CliSpec, HelpListsEveryVerbEveryFlagAndTheExitNote) {
  const CliSpec spec = make_spec();
  const std::string help = spec.help();
  // The core contract: anything in the table appears in the help text. The
  // parser accepts exactly the table, so help cannot drift from reality.
  for (const CliVerb& verb : spec.verbs()) {
    if (!verb.name.empty()) {
      EXPECT_NE(help.find(verb.name), std::string::npos) << verb.name;
    }
    if (!verb.positionals.empty()) {
      EXPECT_NE(help.find(verb.positionals), std::string::npos);
    }
    for (const CliFlag& flag : verb.flags) {
      EXPECT_NE(help.find(flag.name), std::string::npos) << flag.name;
      EXPECT_NE(help.find(flag.help), std::string::npos) << flag.name;
    }
  }
  EXPECT_NE(help.find("toolbin"), std::string::npos);
  EXPECT_NE(help.find("exit codes: 0 success, 1 usage error, 2 input error"),
            std::string::npos);
}

TEST(CliSpec, UsageLineMentionsFlagsOnlyWhenTheVerbHasAny) {
  const CliSpec spec = make_spec();
  const std::string with_flags = spec.verb_help(*spec.verb("run"));
  EXPECT_NE(with_flags.find("[flags]"), std::string::npos);
  const std::string without = spec.verb_help(*spec.verb("list"));
  EXPECT_EQ(without.find("[flags]"), std::string::npos);
  EXPECT_EQ(without.find("--"), std::string::npos);
}

TEST(CliSpec, VerblessBinaryRendersABareUsageLine) {
  CliSpec spec("served", "serves", "exit codes: 0 success");
  CliVerb& main_verb = spec.add_verb("", "", "");
  main_verb.flags = {{"--socket", "<path>", "socket path"}};
  const std::string help = spec.help();
  EXPECT_NE(help.find("served"), std::string::npos);
  EXPECT_NE(help.find("--socket"), std::string::npos);
  EXPECT_NE(help.find("[flags]"), std::string::npos);
}

/// CliSpec::parse of \p args (argv[0] is a dummy binary name).
CliArgs parse(const CliVerb& verb, std::vector<const char*> args) {
  args.insert(args.begin(), "toolbin");
  return CliSpec::parse(verb, static_cast<int>(args.size()), args.data(), 1);
}

TEST(CliSpecParse, FlagsMixedAmongPositionalsInBothValueForms) {
  const CliSpec spec = make_spec();
  CliArgs args = parse(*spec.verb("run"),
                       {"h264", "--trace=t.json", "3", "--fast", "4"});
  ASSERT_TRUE(args.ok()) << args.error.message;
  EXPECT_FALSE(args.help);
  EXPECT_EQ(args.positionals, (std::vector<std::string>{"h264", "3", "4"}));
  EXPECT_TRUE(args.has("--fast"));
  std::string trace;
  EXPECT_TRUE(args.read_text("--trace", &trace));
  EXPECT_EQ(trace, "t.json");

  // `--flag V` takes the next argument, even one that looks like a flag.
  args = parse(*spec.verb("run"), {"--trace", "--fast"});
  ASSERT_TRUE(args.ok()) << args.error.message;
  EXPECT_TRUE(args.read_text("--trace", &trace));
  EXPECT_EQ(trace, "--fast");
  EXPECT_FALSE(args.has("--fast"));
}

TEST(CliSpecParse, EachErrorKindNamesTheArgument) {
  const CliSpec spec = make_spec();
  const CliVerb& run = *spec.verb("run");
  struct Case {
    std::vector<const char*> args;
    CliError::Kind kind;
    const char* named;
  };
  const Case cases[] = {
      {{"app", "--bogus"}, CliError::Kind::kUnknownArgument, "'--bogus'"},
      {{"app", "--trace"}, CliError::Kind::kMissingValue, "--trace"},
      {{"--fast=1"}, CliError::Kind::kValueOnBoolean, "'--fast=1'"},
      {{"--trace", "a", "--trace=b"}, CliError::Kind::kRepeatedFlag,
       "'--trace=b'"},
      {{"--fast", "--fast"}, CliError::Kind::kRepeatedFlag, "'--fast'"},
  };
  for (const Case& c : cases) {
    const CliArgs args = parse(run, c.args);
    EXPECT_EQ(args.error.kind, c.kind) << args.error.message;
    EXPECT_NE(args.error.message.find(c.named), std::string::npos)
        << args.error.message;
  }
  // A verb that declares no positionals rejects one as unknown.
  const CliArgs args = parse(*spec.verb("list"), {"extra"});
  EXPECT_EQ(args.error.kind, CliError::Kind::kUnknownArgument);
  EXPECT_NE(args.error.message.find("'extra'"), std::string::npos);
}

TEST(CliSpecParse, HelpAnywhereSkipsEveryOtherCheck) {
  const CliSpec spec = make_spec();
  const CliArgs args = parse(*spec.verb("run"), {"--bogus", "x", "--help"});
  EXPECT_TRUE(args.help);
  EXPECT_TRUE(args.ok());
}

TEST(CliSpecParse, TypedReadsCheckBoundsAndParseInFull) {
  CliSpec spec("toolbin", "", "");
  CliVerb& verb = spec.add_verb("", "", "");
  verb.flags = {{"--n", "<n>", ""}, {"--p", "<p>", ""}, {"--s", "<s>", ""}};
  auto read_n = [&](const char* text, unsigned* n) {
    CliArgs args = parse(verb, {"--n", text});
    return args.ok() && args.read("--n", 1, 1000, n);
  };
  unsigned n = 7;
  EXPECT_TRUE(read_n("1000", &n));
  EXPECT_EQ(n, 1000u);
  for (const char* bad : {"0", "1001", "2x", "-1", "+1", " 1", "", "0x10",
                          "4294967297", "18446744073709551616"}) {
    n = 7;
    EXPECT_FALSE(read_n(bad, &n)) << bad;
    EXPECT_EQ(n, 7u) << bad;  // a rejected value leaves the default
  }

  auto read_p = [&](const char* text, double* p) {
    CliArgs args = parse(verb, {"--p", text});
    return args.ok() && args.read_probability("--p", p);
  };
  double p = 0.0;
  EXPECT_TRUE(read_p("0.25", &p));
  EXPECT_EQ(p, 0.25);
  EXPECT_TRUE(read_p("1", &p));
  // strtod accepted the last three; the token parser does not.
  for (const char* bad : {"1.5", "-0.1", "nan", "inf", "0.5x", "", "+0.5",
                          " 0.5", "0x1p-2"}) {
    EXPECT_FALSE(read_p(bad, &p)) << bad;
  }

  CliArgs args = parse(verb, {"--s="});
  std::string text = "default";
  EXPECT_FALSE(args.read_text("--s", &text));
  EXPECT_EQ(args.error.kind, CliError::Kind::kBadValue);
  EXPECT_EQ(text, "default");

  // Absent flags leave every default and report nothing.
  args = parse(verb, {});
  n = 7;
  p = 0.5;
  EXPECT_TRUE(args.read("--n", 1, 1000, &n) &&
              args.read_probability("--p", &p) &&
              args.read_text("--s", &text));
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(p, 0.5);
  EXPECT_TRUE(args.ok());
}

TEST(CliSpecParse, TheFirstBadValueIsTheErrorAndNamesItsToken) {
  CliArgs args;
  std::uint64_t v = 0;
  EXPECT_FALSE(args.read_token("prcs", "2x", 0, 1024, &v));
  EXPECT_FALSE(args.read_token("cg", "-1", 0, 1024, &v));
  EXPECT_EQ(args.error.kind, CliError::Kind::kBadValue);
  EXPECT_EQ(args.error.message,
            "invalid prcs '2x' (expected an integer in [0, 1024])");
}

}  // namespace
}  // namespace mrts
