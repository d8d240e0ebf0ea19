#include "common/table_writer.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace came {

TableWriter::TableWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TableWriter::AddRow(std::vector<std::string> row) {
  CAME_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TableWriter::Num(double v, int precision) {
  char buf[64];
  (void)std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TableWriter::ToAscii() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::ostringstream os;
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c] << std::string(widths[c] - row[c].size(), ' ')
         << " |";
    }
    os << "\n";
    return os.str();
  };
  std::string separator = "+";
  for (size_t w : widths) separator += std::string(w + 2, '-') + "+";
  separator += "\n";

  std::string out = separator + render_row(header_) + separator;
  for (const auto& row : rows_) out += render_row(row);
  out += separator;
  return out;
}

}  // namespace came
