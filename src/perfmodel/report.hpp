// Small table/series printers so every bench binary emits the same
// aligned-rows format as the paper's artifacts.
#pragma once

#include <string>
#include <vector>

namespace mlk::perf {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(const std::vector<std::string>& cells);
  /// Print with aligned columns to stdout.
  void print() const;

  static std::string num(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner for bench output.
void banner(const std::string& title, const std::string& paper_ref);

}  // namespace mlk::perf
