#ifndef CEGRAPH_UTIL_TABLE_PRINTER_H_
#define CEGRAPH_UTIL_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace cegraph::util {

/// Renders aligned text tables for the benchmark harnesses. All bench
/// binaries print their figure/table reproduction through this class so the
/// output format is uniform and diff-able.
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with %.4g.
  static std::string Num(double v);

  /// Writes the table, padded with two-space gutters, to `os`.
  void Print(std::ostream& os) const;

  /// Writes the table as CSV (no padding) to `os`.
  void PrintCsv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cegraph::util

#endif  // CEGRAPH_UTIL_TABLE_PRINTER_H_
