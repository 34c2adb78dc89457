#ifndef ENLD_COMMON_TABLE_H_
#define ENLD_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace enld {

/// Builds aligned plain-text tables. All benchmark binaries print their
/// paper-figure reproductions through this so output is uniform and easy to
/// diff against EXPERIMENTS.md.
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` decimal places.
  static std::string Num(double value, int precision = 4);

  /// Renders the table with a title line, header rule and aligned columns.
  std::string ToString(const std::string& title = "") const;

  /// Prints ToString(title) to stdout.
  void Print(const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace enld

#endif  // ENLD_COMMON_TABLE_H_
