// ChromeTrace — a built-in tool exporting the chrome://tracing /
// Perfetto trace-event JSON format. Kernel dispatches, per-pool-worker
// chunks, named regions, and DualView deep copies become spans on
// per-thread tracks, so a run's timeline (Verlet phases enclosing kernel
// launches enclosing worker execution) is directly visible in the viewer.
//
// Span encoding:
//   kernels       -> "X" complete events, cat "kernel" (host) /
//                    "kernel,device" (device), on the dispatching thread
//   worker chunks -> "X" events, cat "chunk", on the pool worker's track
//   regions       -> "B"/"E" duration events, cat "region"
//   deep copies   -> "X" events, cat "deep_copy"
//   fences        -> "i" instant events
//   counters      -> "C" counter events (value tracks in the viewer): any
//                    kk::profiling::count_event (telemetry ring drops, the
//                    batch scheduler's queue depth) plus the View memory
//                    counters this tool derives itself from allocate/
//                    deallocate callbacks ("mem.live_bytes", "mem.hwm_bytes")
// Thread tracks are labelled from kk::profiling::set_thread_name
// ("rank-N", "pool-worker-N") via "thread_name" metadata events.
//
// Under simmpi, events carry the emitting thread's rank tag. Two scoping
// modes: `only_tag` keeps a single rank's events (per-rank tool
// registration), and split-by-tag (the default for the env-var wiring)
// writes path.rank<r> per rank plus the base path for untagged events.
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kokkos/profiling.hpp"

namespace mlk::tools {

class ChromeTrace : public kk::profiling::Tool {
 public:
  static constexpr int kNoFilter = INT_MIN;

  /// Records from construction; finalize() (or destruction) writes `path`.
  /// With only_tag >= -1, only events from threads carrying that tag are
  /// kept and everything lands in the single `path` file.
  explicit ChromeTrace(std::string path, int only_tag = kNoFilter);
  ~ChromeTrace() override;

  void begin_parallel_for(const std::string& name, bool device,
                          std::uint64_t items, std::uint64_t kid) override;
  void end_parallel_for(std::uint64_t kid) override;
  void begin_parallel_reduce(const std::string& name, bool device,
                             std::uint64_t items, std::uint64_t kid) override;
  void end_parallel_reduce(std::uint64_t kid) override;
  void begin_parallel_scan(const std::string& name, bool device,
                           std::uint64_t items, std::uint64_t kid) override;
  void end_parallel_scan(std::uint64_t kid) override;
  void push_region(const std::string& name) override;
  void pop_region(const std::string& name) override;
  void begin_deep_copy(const char* dst_space, const std::string& dst_label,
                       const char* src_space, const std::string& src_label,
                       std::uint64_t bytes, std::uint64_t id) override;
  void end_deep_copy(std::uint64_t id) override;
  void fence(const std::string& name) override;
  void counter(const std::string& name, double value) override;
  void allocate_data(const char* space, const std::string& label,
                     const void* ptr, std::uint64_t bytes) override;
  void deallocate_data(const char* space, const std::string& label,
                       const void* ptr, std::uint64_t bytes) override;
  void begin_worker_chunk(std::uint64_t kid, int worker, std::uint64_t begin,
                          std::uint64_t end) override;
  void end_worker_chunk(std::uint64_t kid, int worker) override;

  /// Write the trace file(s). Idempotent; also invoked by the destructor.
  void finalize() override;

 private:
  struct Event {
    std::string name;
    const char* cat;
    char ph;              // 'X', 'B', 'E', 'i', 'C'
    double ts_us = 0.0;
    double dur_us = 0.0;  // 'X' only
    int tid = 0;
    int tag = -1;
    std::uint64_t arg_items = 0;  // items ('X' kernel) or bytes (deep_copy)
    double arg_value = 0.0;       // counter value ('C' only)
  };

  struct OpenSpan {
    std::string name;
    const char* cat;
    double ts_us;
    int tid;
    int tag;
    std::uint64_t items;
  };

  double now_us() const;
  bool accepts_current_thread() const;
  void open(std::uint64_t key, const std::string& name, const char* cat,
            std::uint64_t items);
  void close(std::uint64_t key);
  static void write_file(const std::string& path,
                         const std::vector<const Event*>& events,
                         const std::map<int, std::string>& names);

  std::string path_;
  int only_tag_;
  double t0_us_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, OpenSpan> open_;
  std::vector<Event> events_;
  bool finalized_ = false;
  // View-memory accounting for the derived "mem.*" counter tracks
  // (allocate_data/deallocate_data callbacks; guarded by mu_).
  std::uint64_t live_bytes_ = 0;
  std::uint64_t hwm_bytes_ = 0;
};

}  // namespace mlk::tools
