#pragma once
/// \file parse_number.h
/// The one token parser for numbers that arrive from outside the program:
/// command-line flags and positionals, environment variables, ISE library
/// files, job logs and JSONL traces. It is the mirror of format_number
/// (util/text_buffer.h): std::from_chars over the whole token.
///
/// A token parses only in full. Rejected: an empty token, leading
/// whitespace, a leading '+', a '-' on an unsigned field, trailing
/// characters ("2x", "1.5x"), a value outside the field's range (no
/// wrap-around) and, for doubles, hex floats, "inf" and "nan".

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace mrts {

/// Parses the whole of \p token into \p out; false (and \p out untouched)
/// on anything the contract above rejects.
template <typename T>
bool parse_number(std::string_view token, T* out) {
  T v{};
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, v);
  if (ec != std::errc() || ptr != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  *out = v;
  return true;
}

/// parse_number, then a range check: the value must lie in [lo, hi].
template <typename T>
bool parse_bounded(std::string_view token, std::type_identity_t<T> lo,
                   std::type_identity_t<T> hi, T* out) {
  T v{};
  if (!parse_number(token, &v) || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace mrts
