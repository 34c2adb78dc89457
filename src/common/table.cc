#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.h"

namespace enld {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ENLD_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  ENLD_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::ToString(const std::string& title) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  if (!title.empty()) out << "== " << title << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << "  ";
      out << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  emit_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c > 0 ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void TablePrinter::Print(const std::string& title) const {
  std::fputs(ToString(title).c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace enld
