#include "util/text_buffer.h"

#include <ostream>

namespace mrts {

TextBuffer::~TextBuffer() {
  // A stream set to throw on failure has recorded the failure in its state
  // before throwing; callers read that state after the writer returns.
  try {
    flush();
  } catch (const std::ios_base::failure&) {
  }
}

void TextBuffer::flush() {
  if (used_ == 0) return;
  sink_->write(data_, static_cast<std::streamsize>(used_));
  used_ = 0;
}

TextBuffer& TextBuffer::write_long(std::string_view s) {
  flush();
  if (s.size() >= kChunkBytes) {
    sink_->write(s.data(), static_cast<std::streamsize>(s.size()));
    return *this;
  }
  return *this << s;
}

TextBuffer& TextBuffer::json_escaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the run of characters needing no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    *this << s.substr(plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': *this << "\\\""; break;
      case '\\': *this << "\\\\"; break;
      case '\n': *this << "\\n"; break;
      case '\r': *this << "\\r"; break;
      case '\t': *this << "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        *this << std::string_view(escape, sizeof escape);
      }
    }
  }
  return *this << s.substr(plain);
}

}  // namespace mrts
