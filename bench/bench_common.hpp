// Shared helpers for the per-figure bench binaries.
//
// Every bench combines two ingredients (DESIGN.md "measurement vs modelling
// split"): quantities *measured* from the real kernels running on this CPU
// (neighbor counts, bond/quad statistics, CG iterations, index-space sums,
// and wall-clock timings of real kernel code), and the architecture model
// that maps workload descriptors to per-architecture predictions. Columns
// are labelled "measured" or "modelled" accordingly.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "minilammps.hpp"
#include "perfmodel/counters.hpp"
#include "perfmodel/network.hpp"
#include "perfmodel/report.hpp"
#include "tools/kernel_timer.hpp"
#include "tools/memory_tracker.hpp"
#include "tools/observability.hpp"
#include "util/timer.hpp"

namespace bench {

/// Structured per-kernel metrics for a bench run. Declare one at the top of
/// a bench main(); when MLK_BENCH_METRICS is set it registers a KernelTimer
/// + MemorySpaceTracker for the program's lifetime and writes
/// `<name>.metrics.json` ({"kernels": ..., "memory": ...}) on destruction —
/// per-kernel count/min/max/mean seconds and items/s for every *measured*
/// kernel the bench ran, alongside the modelled columns it prints.
/// MLK_BENCH_METRICS=1 writes to the current directory; any other value is
/// used as the output directory.
class Metrics {
 public:
  explicit Metrics(std::string name) : name_(std::move(name)) {
    const char* v = std::getenv("MLK_BENCH_METRICS");
    if (!v || !*v || std::string(v) == "0") return;
    dir_ = std::string(v) == "1" ? "." : v;
    timer_ = std::make_shared<mlk::tools::KernelTimer>();
    memory_ = std::make_shared<mlk::tools::MemorySpaceTracker>();
    memory_->set_print_leaks(false);
    kk::profiling::register_tool(timer_);
    kk::profiling::register_tool(memory_);
  }

  ~Metrics() {
    if (!timer_) return;
    kk::profiling::deregister_tool(timer_);
    kk::profiling::deregister_tool(memory_);
    const std::string path = dir_ + "/" + name_ + ".metrics.json";
    if (extras_.empty()) {
      mlk::tools::write_profile_json(path, timer_->json_fragment(), *memory_);
    } else {
      std::ofstream f(path);
      f << "{\"kernels\":" << timer_->json_fragment()
        << ",\"memory\":" << memory_->json_fragment();
      for (const auto& [key, fragment] : extras_)
        f << ",\"" << key << "\":" << fragment;
      f << "}\n";
    }
    std::printf("# per-kernel metrics written to %s\n", path.c_str());
  }

  /// Attach an extra top-level section (pre-rendered JSON) to the metrics
  /// file — bench-specific results like gate measurements. No-op when
  /// MLK_BENCH_METRICS is off.
  void set_extra(const std::string& key, const std::string& json_fragment) {
    if (timer_) extras_[key] = json_fragment;
  }

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

 private:
  std::string name_;
  std::string dir_;
  std::map<std::string, std::string> extras_;
  std::shared_ptr<mlk::tools::KernelTimer> timer_;
  std::shared_ptr<mlk::tools::MemorySpaceTracker> memory_;
};

using mlk::perf::PotentialStats;

/// Measured stats, cached per process (measurement runs the real engine).
inline const PotentialStats& lj_stats() {
  static const PotentialStats s = mlk::perf::measure_lj_stats();
  return s;
}
inline const PotentialStats& reaxff_stats() {
  static const PotentialStats s = mlk::perf::measure_reaxff_stats();
  return s;
}
inline const PotentialStats& snap_stats() {
  static const PotentialStats s = mlk::perf::measure_snap_stats(8);
  return s;
}

/// Atom-steps/s for a modelled per-step kernel sequence.
inline double atom_steps_per_second(
    const mlk::perf::GpuModel& gpu, mlk::bigint natoms,
    const std::vector<mlk::perf::KernelWorkload>& ws) {
  return double(natoms) / gpu.total_seconds(ws);
}

/// Wall-clock a callable (median of `reps`, after one warmup).
inline double time_seconds(const std::function<void()>& fn, int reps = 3) {
  fn();  // warmup
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    mlk::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Density (atoms per unit volume) of the standard benchmark systems.
inline double lj_density() { return 0.8442; }
inline double hns_density() { return 64.0 / (5.2 * 5.2 * 5.2); }  // atoms/A^3
inline double bcc_density() { return 2.0 / (3.16 * 3.16 * 3.16); }

}  // namespace bench
