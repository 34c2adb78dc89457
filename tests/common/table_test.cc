#include "common/table.h"

#include <gtest/gtest.h>

namespace enld {
namespace {

TEST(TablePrinterTest, RendersHeadersAndRows) {
  TablePrinter table({"method", "f1"});
  table.AddRow({"ENLD", "0.9191"});
  table.AddRow({"Topofilter", "0.9021"});
  const std::string out = table.ToString("results");
  EXPECT_NE(out.find("== results =="), std::string::npos);
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("ENLD"), std::string::npos);
  EXPECT_NE(out.find("0.9021"), std::string::npos);
}

TEST(TablePrinterTest, ColumnsAligned) {
  TablePrinter table({"a", "b"});
  table.AddRow({"xxxxxx", "1"});
  table.AddRow({"y", "2"});
  const std::string out = table.ToString();
  // Both value cells in column b must start at the same offset.
  size_t line_start = out.find("xxxxxx");
  size_t one = out.find('1', line_start) - line_start;
  size_t line2_start = out.find("\ny", line_start) + 1;
  size_t two = out.find('2', line2_start) - line2_start;
  EXPECT_EQ(one, two);
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(0.91913, 4), "0.9191");
  EXPECT_EQ(TablePrinter::Num(3.0, 1), "3.0");
  EXPECT_EQ(TablePrinter::Num(-1.25, 2), "-1.25");
}

TEST(TablePrinterTest, NoTitleOmitsHeaderLine) {
  TablePrinter table({"x"});
  table.AddRow({"1"});
  EXPECT_EQ(table.ToString().find("=="), std::string::npos);
}

}  // namespace
}  // namespace enld
