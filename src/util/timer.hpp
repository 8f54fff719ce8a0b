// Wall-clock timing helpers used by the thermo output and the bench harness.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>

namespace mlk {

/// Simple monotonic stopwatch.
class Timer {
 public:
  Timer() { start(); }
  void start() { t0_ = clock::now(); }
  /// Seconds since start().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - t0_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point t0_;
};

/// The timed sections of the Verlet loop, LAMMPS-style. Other is what the
/// loop time leaves after all five; sections never nest.
enum class Section { Pair, Neigh, Comm, Modify, Output };
inline constexpr std::size_t kNumSections = 5;

/// Breakdown row label and trace region name of each section, by Section.
inline constexpr std::array<const char*, kNumSections> kSectionNames = {
    "Pair", "Neigh", "Comm", "Modify", "Output"};
inline constexpr std::array<const char*, kNumSections> kSectionRegions = {
    "Verlet::force", "Verlet::neighbor", "Verlet::comm", "Verlet::modify",
    "Verlet::output"};

/// Seconds accumulated per section. A copy is a snapshot; since() diffs two.
class TimerSet {
 public:
  void add(Section s, double seconds) { acc_[std::size_t(s)] += seconds; }
  double total(Section s) const { return acc_[std::size_t(s)]; }
  /// Seconds accumulated since `earlier`, a copy of this set taken before.
  TimerSet since(const TimerSet& earlier) const;

  /// By-name reads ("Pair", ...; unknown names read 0) for the perfbench
  /// harness; engine code indexes by Section.
  double total(std::string_view name) const;
  std::map<std::string, double> all() const;

 private:
  std::array<double, kNumSections> acc_{};
};

}  // namespace mlk
