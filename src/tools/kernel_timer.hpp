// KernelTimer — a built-in KokkosP-style tool that times every kernel
// dispatch: per-kernel call count, total/min/max/mean seconds, and an
// items-per-second rate (the per-kernel measurement the paper's Figs. 2-7
// are built from). DualView deep copies are accumulated as pseudo-kernels
// named "deep_copy[DST<-SRC]" so transfer time shows up in the same table.
//
// This is the one per-kernel table and the one per-kernel JSON writer; the
// always-on launch totals in kk::profiling carry no names. Stats are kept
// per (thread tag, kernel name); under simmpi each rank thread carries its
// rank as the tag, so json_fragment(rank) scopes output to one rank's
// events exactly like one-process-per-rank MPI tools do.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kokkos/profiling.hpp"

namespace mlk::tools {

class KernelTimer : public kk::profiling::Tool {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::uint64_t device_count = 0;
    std::uint64_t total_items = 0;
    double total_s = 0.0;
    double min_s = 0.0;
    double max_s = 0.0;
    double mean_s() const { return count ? total_s / double(count) : 0.0; }
    double items_per_s() const {
      return total_s > 0.0 ? double(total_items) / total_s : 0.0;
    }
  };

  void begin_parallel_for(const std::string& name, bool device,
                          std::uint64_t items, std::uint64_t kid) override;
  void end_parallel_for(std::uint64_t kid) override;
  void begin_parallel_reduce(const std::string& name, bool device,
                             std::uint64_t items, std::uint64_t kid) override;
  void end_parallel_reduce(std::uint64_t kid) override;
  void begin_parallel_scan(const std::string& name, bool device,
                           std::uint64_t items, std::uint64_t kid) override;
  void end_parallel_scan(std::uint64_t kid) override;
  void begin_deep_copy(const char* dst_space, const std::string& dst_label,
                       const char* src_space, const std::string& src_label,
                       std::uint64_t bytes, std::uint64_t id) override;
  void end_deep_copy(std::uint64_t id) override;

  /// Merged-across-tags stats, keyed by kernel name.
  std::map<std::string, Stat> stats() const;
  /// Stats for one thread tag only (-1 = untagged events).
  std::map<std::string, Stat> stats_for_tag(int tag) const;
  /// Distinct tags seen (>= 0 only; rank ids under simmpi).
  std::vector<int> tags() const;

  /// Human-readable table, sorted by total time descending.
  std::string text_report() const;
  /// JSON object string: {"kernel": {count, device_count, total_items,
  /// total_s, ...}, ...}, merged across tags or for one thread tag only.
  std::string json_fragment() const;
  std::string json_fragment(int tag) const;

 private:
  struct Open {
    int tag;
    std::string name;
    bool device;
    std::uint64_t items;
    double t0;
  };

  void begin(const std::string& name, bool device, std::uint64_t items,
             std::uint64_t kid);
  void end(std::uint64_t kid);
  static std::string json_for(const std::map<std::string, Stat>& stats);

  mutable std::mutex mu_;
  std::map<std::uint64_t, Open> open_;
  std::map<std::pair<int, std::string>, Stat> stats_;
};

}  // namespace mlk::tools
