#pragma once
/// \file cli_spec.h
/// Declarative command-line tables shared by every binary: the tools
/// (mrts_cli, mrts_serve, mrts_loadgen) and the figure harnesses
/// (bench/bench_common.h). Each binary defines one CliSpec — its verbs,
/// positionals and flags — and three things come from that single table:
/// its `--help` text, its argv walk (CliSpec::parse) and the names its
/// errors report. The help text therefore cannot drift from what the
/// parser accepts. tests/test_cli_spec.cpp pins the contract.
///
/// One grammar for every binary: `--flag V` or `--flag=V` for a value
/// flag, a bare `--flag` for a boolean one; an argument that does not start
/// with `--` is a positional. CliSpec::parse rejects an unknown argument, a
/// value flag without its value, a value on a boolean flag and a repeated
/// flag. The typed reads of CliArgs then check each value as it is read —
/// an unsigned integer in [lo, hi], a probability in [0,1] or non-empty
/// text — through the one token parser (util/parse_number.h), with the
/// bounds passed at the read. Every error names the argument; each binary
/// maps the error kinds onto its exit codes (docs/CLI.md).

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/parse_number.h"

namespace mrts {

struct CliFlag {
  std::string name;   ///< including dashes, e.g. "--trace"
  std::string value;  ///< value placeholder, e.g. "<file>"; "" = boolean flag
  std::string help;   ///< one-line description
};

struct CliVerb {
  std::string name;         ///< "" for verbless binaries
  /// e.g. "<h264|sdr> [prcs] [cg] [frames]"; "" = the verb takes none
  std::string positionals;
  std::string help;         ///< one-line description
  std::vector<CliFlag> flags;
};

/// Why a command line was rejected. The message names the argument.
struct CliError {
  enum class Kind {
    kNone,
    kUnknownArgument,  ///< not in the verb's table, or an unwanted positional
    kMissingValue,     ///< a value flag at the end of the command line
    kValueOnBoolean,   ///< `--flag=V` on a flag that takes no value
    kRepeatedFlag,     ///< a flag given twice
    kBadValue,         ///< a typed read rejected the value
  };
  Kind kind = Kind::kNone;
  std::string message;
};

/// A command line walked against one verb's table (CliSpec::parse), plus
/// the typed reads of its values.
class CliArgs {
 public:
  bool help = false;  ///< `--help` was given; nothing else was checked
  std::vector<std::string> positionals;
  CliError error;  ///< the first error, from the walk or from a typed read

  bool ok() const { return error.kind == CliError::Kind::kNone; }
  bool has(std::string_view flag) const { return value(flag) != nullptr; }

  /// Typed reads. An absent flag leaves \p out as it is and returns true; a
  /// value that is malformed or out of range sets `error` (kBadValue) and
  /// returns false.
  template <typename T>
  bool read(std::string_view flag, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi, T* out) {
    const std::string* text = value(flag);
    return text == nullptr || read_token(flag, *text, lo, hi, out);
  }
  bool read_probability(std::string_view flag, double* out);
  bool read_text(std::string_view flag, std::string* out);

  /// read()'s check on a token that is not a flag value — a positional or
  /// an environment variable — named \p name in the error.
  template <typename T>
  bool read_token(std::string_view name, std::string_view token,
                  std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                  T* out) {
    static_assert(std::is_unsigned_v<T>);
    if (parse_bounded(token, lo, hi, out)) return true;
    return bad_value(name, token,
                     "an integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
  }

 private:
  friend class CliSpec;
  const std::string* value(std::string_view flag) const;
  bool fail(CliError::Kind kind, std::string message);
  bool bad_value(std::string_view name, std::string_view token,
                 const std::string& expected);

  std::vector<std::pair<std::string, std::string>> flags_;  ///< name, value
};

class CliSpec {
 public:
  /// \p exit_note is the shared exit-code contract line printed at the end
  /// of every help text (stated once in docs/CLI.md, repeated by the tools).
  CliSpec(std::string binary, std::string summary, std::string exit_note);

  CliVerb& add_verb(std::string name, std::string positionals,
                    std::string help);

  const std::vector<CliVerb>& verbs() const { return verbs_; }
  /// Verb lookup by name; nullptr when unknown.
  const CliVerb* verb(std::string_view name) const;
  /// Flag lookup within a verb; nullptr when the verb does not accept it.
  static const CliFlag* flag(const CliVerb& verb, std::string_view name);

  /// Walks argv[first..argc) against \p verb's table. A `--help` anywhere
  /// sets `help` and skips every other check; a positional is an unknown
  /// argument when the verb declares none. Stops at the first error.
  static CliArgs parse(const CliVerb& verb, int argc, const char* const* argv,
                       int first);

  /// A usage error under the tools' exit mapping (docs/CLI.md): prints
  /// help() to stderr and returns 1.
  int usage() const;
  /// The tools' exit mapping of \p error: prints it to stderr and returns 2
  /// for a rejected value (an input error), usage() for anything else.
  int reject(const CliError& error) const;

  /// Full `--help` text: usage lines for every verb, then per-verb flag
  /// tables, then the exit-code note.
  std::string help() const;
  /// One verb's help: its usage line plus its flag table.
  std::string verb_help(const CliVerb& verb) const;

  const std::string& binary() const { return binary_; }

 private:
  std::string usage_line(const CliVerb& verb) const;

  std::string binary_;
  std::string summary_;
  std::string exit_note_;
  std::vector<CliVerb> verbs_;
};

}  // namespace mrts
