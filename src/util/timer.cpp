#include "util/timer.hpp"

namespace mlk {

TimerSet TimerSet::since(const TimerSet& earlier) const {
  TimerSet d;
  for (std::size_t k = 0; k < kNumSections; ++k)
    d.acc_[k] = acc_[k] - earlier.acc_[k];
  return d;
}

double TimerSet::total(std::string_view name) const {
  for (std::size_t k = 0; k < kNumSections; ++k)
    if (name == kSectionNames[k]) return acc_[k];
  return 0.0;
}

std::map<std::string, double> TimerSet::all() const {
  std::map<std::string, double> m;
  for (std::size_t k = 0; k < kNumSections; ++k) m[kSectionNames[k]] = acc_[k];
  return m;
}

}  // namespace mlk
