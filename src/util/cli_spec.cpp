#include "util/cli_spec.h"

#include <cstdio>
#include <sstream>

namespace mrts {

CliSpec::CliSpec(std::string binary, std::string summary,
                 std::string exit_note)
    : binary_(std::move(binary)),
      summary_(std::move(summary)),
      exit_note_(std::move(exit_note)) {}

CliVerb& CliSpec::add_verb(std::string name, std::string positionals,
                           std::string help) {
  CliVerb verb;
  verb.name = std::move(name);
  verb.positionals = std::move(positionals);
  verb.help = std::move(help);
  verbs_.push_back(std::move(verb));
  return verbs_.back();
}

const CliVerb* CliSpec::verb(std::string_view name) const {
  for (const CliVerb& v : verbs_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

const CliFlag* CliSpec::flag(const CliVerb& verb, std::string_view name) {
  for (const CliFlag& f : verb.flags) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

CliArgs CliSpec::parse(const CliVerb& verb, int argc,
                       const char* const* argv, int first) {
  CliArgs args;
  for (int i = first; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") {
      args.help = true;
      return args;
    }
  }
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string quoted(1, '\'');
    quoted.append(arg).push_back('\'');
    if (arg.substr(0, 2) != "--" && !verb.positionals.empty()) {
      args.positionals.emplace_back(arg);
      continue;
    }
    // Every flag name starts with "--", so an unwanted positional misses
    // the lookup below and is an unknown argument.
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const CliFlag* spec = flag(verb, name);
    if (spec == nullptr) {
      args.fail(CliError::Kind::kUnknownArgument,
                "unknown argument " + quoted + " (see --help)");
      return args;
    }
    if (args.has(name)) {
      args.fail(CliError::Kind::kRepeatedFlag, "repeated flag " + quoted);
      return args;
    }
    std::string value;
    if (spec->value.empty()) {
      if (eq != arg.npos) {
        args.fail(CliError::Kind::kValueOnBoolean,
                  "unknown argument " + quoted + " (" + name +
                      " takes no value)");
        return args;
      }
    } else if (eq != arg.npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      args.fail(CliError::Kind::kMissingValue,
                "invalid " + name + " (missing value)");
      return args;
    }
    args.flags_.emplace_back(name, std::move(value));
  }
  return args;
}

const std::string* CliArgs::value(std::string_view flag) const {
  for (const auto& [name, text] : flags_) {
    if (name == flag) return &text;
  }
  return nullptr;
}

bool CliArgs::fail(CliError::Kind kind, std::string message) {
  if (ok()) error = {kind, std::move(message)};
  return false;
}

bool CliArgs::bad_value(std::string_view name, std::string_view token,
                        const std::string& expected) {
  return fail(CliError::Kind::kBadValue,
              "invalid " + std::string(name) + " '" + std::string(token) +
                  "' (expected " + expected + ")");
}

bool CliArgs::read_probability(std::string_view flag, double* out) {
  const std::string* text = value(flag);
  if (text == nullptr) return true;
  double v = 0.0;
  if (parse_number(*text, &v) && v >= 0.0 && v <= 1.0) {
    *out = v;
    return true;
  }
  return bad_value(flag, *text, "a probability in [0,1]");
}

bool CliArgs::read_text(std::string_view flag, std::string* out) {
  const std::string* text = value(flag);
  if (text == nullptr) return true;
  if (text->empty()) return bad_value(flag, *text, "a non-empty value");
  *out = *text;
  return true;
}

int CliSpec::usage() const {
  std::fputs(help().c_str(), stderr);
  return 1;
}

int CliSpec::reject(const CliError& error) const {
  std::fprintf(stderr, "error: %s\n", error.message.c_str());
  return error.kind == CliError::Kind::kBadValue ? 2 : usage();
}

std::string CliSpec::usage_line(const CliVerb& verb) const {
  std::string line = "  " + binary_;
  if (!verb.name.empty()) line += " " + verb.name;
  if (!verb.positionals.empty()) line += " " + verb.positionals;
  if (!verb.flags.empty()) line += " [flags]";
  return line;
}

namespace {

/// A verb's flag table, one aligned line per flag.
void write_flag_table(std::ostringstream& os, const CliVerb& verb) {
  std::size_t width = 0;
  for (const CliFlag& f : verb.flags) {
    const std::size_t n =
        f.name.size() + (f.value.empty() ? 0 : f.value.size() + 1);
    width = n > width ? n : width;
  }
  for (const CliFlag& f : verb.flags) {
    std::string head = f.name;
    if (!f.value.empty()) head += " " + f.value;
    os << "  " << head << std::string(width - head.size() + 2, ' ') << f.help
       << '\n';
  }
}

}  // namespace

std::string CliSpec::verb_help(const CliVerb& verb) const {
  std::ostringstream os;
  os << "usage:\n" << usage_line(verb) << '\n';
  if (!verb.help.empty()) os << "  " << verb.help << '\n';
  if (!verb.flags.empty()) {
    os << "flags:\n";
    write_flag_table(os, verb);
  }
  os << exit_note_ << '\n';
  return os.str();
}

std::string CliSpec::help() const {
  std::ostringstream os;
  os << binary_ << " - " << summary_ << "\n\nusage:\n";
  for (const CliVerb& v : verbs_) os << usage_line(v) << '\n';
  for (const CliVerb& v : verbs_) {
    if (v.flags.empty() && v.help.empty()) continue;
    os << '\n';
    if (!v.name.empty()) {
      os << v.name << ": " << v.help << '\n';
    } else if (!v.help.empty()) {
      os << v.help << '\n';
    }
    write_flag_table(os, v);
  }
  os << '\n' << exit_note_ << '\n';
  return os.str();
}

}  // namespace mrts
