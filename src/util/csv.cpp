#include "util/csv.h"

#include <stdexcept>

#include "util/text_buffer.h"

namespace mrts {

CsvWriter::CsvWriter(const std::string& path) : to_file_(true) {
  file_.open(path);
  if (!file_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

CsvWriter::CsvWriter() = default;

void CsvWriter::write_header(const std::vector<std::string>& columns) {
  emit(columns);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  emit(cells);
}

std::string CsvWriter::str() const { return buffer_; }

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::to_cell(double v) {
  // The shared number contract (util/text_buffer.h): integral doubles below
  // 2^53 keep every digit, the rest the historical %.10g the committed CSVs
  // depend on; non-finite values print inf/nan.
  char buf[kNumberChars];
  return std::string(buf, format_number(buf, v));
}

void CsvWriter::emit(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += escape(cells[i]);
  }
  line += '\n';
  if (to_file_) {
    file_ << line;
  } else {
    buffer_ += line;
  }
}

}  // namespace mrts
