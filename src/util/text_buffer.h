#pragma once
/// \file text_buffer.h
/// The one number formatter and the one append buffer behind every text
/// writer of the repo: the JSONL and Chrome trace exporters (util/trace.h),
/// the run-report serializers (obs/report_io.h) and CsvWriter::to_cell
/// (util/csv.h).
///
/// Number contract (deterministic bytes for deterministic values):
///  * integers print every digit;
///  * integral doubles below 2^53 print every digit (printf "%.0f"), so
///    large cycle counts survive a round trip;
///  * every other double prints printf "%.10g".
/// Both double forms come from std::to_chars (the integral one through the
/// exact int64 conversion), which the standard defines to match those
/// printf conversions; tests/test_util.cpp checks every byte against
/// snprintf on edge values and a seeded sweep of random bit patterns.
/// Non-finite doubles print "inf"/"-inf"/"nan" (the CSV rule); JSON has no
/// such literals, so JSON writers print 0 for them instead
/// (TextBuffer::json_number).

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string_view>
#include <type_traits>

namespace mrts {

/// Upper bound on the characters format_number writes ("-1.234567891e-308"
/// is 17; the integral form is at most 17 too).
inline constexpr std::size_t kNumberChars = 32;

/// Writes \p v at \p first under the number contract above and returns the
/// end of the text. \p first must have kNumberChars bytes of room.
inline char* format_number(char* first, double v) {
  char* const last = first + kNumberChars;
  if (std::fabs(v) < 9007199254740992.0 /* 2^53 */) {
    // An integral double below 2^53 converts exactly, and "%.0f" of it is
    // the integer's digits ("-0" for negative zero): the integer overload
    // prints them several times faster than chars_format::fixed.
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v) {
      if (i == 0 && std::signbit(v)) *first++ = '-';
      return std::to_chars(first, last, i).ptr;
    }
  }
  return std::to_chars(first, last, v, std::chars_format::general, 10).ptr;
}

/// Append buffer in front of a std::ostream: writers stream text and
/// numbers into it and it hands the sink one chunk of kChunkBytes at a time,
/// so a long trace is never held in memory twice. The chunk lives inside the
/// object (a writer's stack frame), so writing allocates nothing. Flushes on
/// destruction.
class TextBuffer {
 public:
  static constexpr std::size_t kChunkBytes = 8 * 1024;

  explicit TextBuffer(std::ostream& sink) : sink_(&sink) {}
  ~TextBuffer();
  TextBuffer(const TextBuffer&) = delete;
  TextBuffer& operator=(const TextBuffer&) = delete;

  TextBuffer& operator<<(std::string_view s) {
    if (s.size() > kChunkBytes - used_) return write_long(s);
    std::memcpy(data_ + used_, s.data(), s.size());
    used_ += s.size();
    return *this;
  }
  TextBuffer& operator<<(const char* s) { return *this << std::string_view(s); }
  TextBuffer& operator<<(char c) {
    *room(1) = c;
    ++used_;
    return *this;
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             !std::is_same_v<T, char>)
  TextBuffer& operator<<(T v) {
    char* const first = room(kNumberChars);
    used_ += static_cast<std::size_t>(
        std::to_chars(first, first + kNumberChars, v).ptr - first);
    return *this;
  }
  /// Doubles must pick a rule: number() (CSV) or json_number() (JSON).
  TextBuffer& operator<<(double) = delete;
  TextBuffer& operator<<(bool) = delete;

  /// \p v under the number contract; non-finite values print inf/nan.
  TextBuffer& number(double v) {
    char* const first = room(kNumberChars);
    used_ += static_cast<std::size_t>(format_number(first, v) - first);
    return *this;
  }
  /// \p v under the number contract; non-finite values print 0.
  TextBuffer& json_number(double v) {
    return std::isfinite(v) ? number(v) : *this << '0';
  }
  /// \p s as the body of a JSON string literal (quotes not included).
  TextBuffer& json_escaped(std::string_view s);

  /// Hands everything buffered so far to the sink.
  void flush();

 private:
  /// Text that does not fit the current chunk: flush, then buffer or pass
  /// straight through.
  TextBuffer& write_long(std::string_view s);
  /// Pointer to at least \p n <= kChunkBytes free bytes (flushing a full
  /// chunk first).
  char* room(std::size_t n) {
    if (kChunkBytes - used_ < n) flush();
    return data_ + used_;
  }

  std::ostream* sink_;
  std::size_t used_ = 0;
  char data_[kChunkBytes];  ///< [0, used_) holds text not yet handed over
};

/// Holds a JSON number for chained writers: `out << JsonNumber{v}`.
struct JsonNumber {
  double v;
};
inline TextBuffer& operator<<(TextBuffer& out, JsonNumber n) {
  return out.json_number(n.v);
}

}  // namespace mrts
