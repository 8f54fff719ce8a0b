#include "perfmodel/report.hpp"

#include <cstdio>
#include <sstream>

namespace mlk::perf {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << v;
  return os.str();
}

void Table::print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      std::printf("%-*s  ", int(width[c]), row[c].c_str());
    std::printf("\n");
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    rule += std::string(width[c], '-') + "  ";
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace mlk::perf
