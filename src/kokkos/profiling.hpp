// KokkosP-style profiling hook layer (the minikokkos analogue of
// kokkosp_*-callback tools, §2.3 of the Kokkos tools ecosystem the paper's
// evaluation leans on).
//
// Two independent mechanisms live here:
//
//  1. Launch *counting*: every parallel dispatch bumps two relaxed atomic
//     totals (all launches, Device-space launches). They are the one
//     always-on launch count: telemetry step samples and perfbench's
//     launches-per-step read them, and per-kernel detail is left to the
//     opt-in KernelTimer tool. Disabled mode is a single relaxed atomic
//     load (bench/bench_overhead.cpp gates this).
//
//  2. Event *tools*: a registerable callback table mirroring the real
//     KokkosP interface. Dispatch sites emit begin/end events for
//     parallel_for / parallel_reduce / parallel_scan (returning kernel IDs),
//     named regions (push_region/pop_region), View allocations
//     (allocate_data/deallocate_data), DualView syncs
//     (begin/end_deep_copy), and fences. Built-in tools live in src/tools/
//     (KernelTimer, ChromeTrace, MemorySpaceTracker); anything implementing
//     Tool can be registered. When no tool is registered the event path is a
//     single relaxed atomic load.
//
// Mapping to real KokkosP callbacks (see DESIGN.md "Observability"):
//   begin_parallel_for     <-> kokkosp_begin_parallel_for(name, devid, &kID)
//   end_parallel_for       <-> kokkosp_end_parallel_for(kID)
//   begin/end_parallel_reduce, begin/end_parallel_scan  (likewise)
//   push_region/pop_region <-> kokkosp_push/pop_profile_region
//   allocate_data          <-> kokkosp_allocate_data(space, label, ptr, size)
//   deallocate_data        <-> kokkosp_deallocate_data(...)
//   begin/end_deep_copy    <-> kokkosp_begin/end_deep_copy
//   fence                  <-> kokkosp_profile_fence_event
// begin/end_worker_chunk is a minikokkos extension (there is no per-SM
// callback in KokkosP): it exposes the per-pool-thread execution of a device
// kernel so timeline tools can draw per-worker tracks.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace kk::profiling {

// ---------------------------------------------------------------------------
// Launch counting
// ---------------------------------------------------------------------------

/// Enable/disable launch counting (enabled by default). Returns the previous
/// state. Disabled dispatch is a fast early-out: one relaxed atomic load.
bool set_enabled(bool on);

/// Launches (all spaces / Device space only) since the last reset(): wait-free
/// relaxed loads, safe on the telemetry producer path. Process-global, so
/// concurrent simmpi ranks and server jobs all count here.
std::uint64_t total_launches();
std::uint64_t total_device_launches();

void reset();

// ---------------------------------------------------------------------------
// Tool callback table
// ---------------------------------------------------------------------------

enum class KernelType { ParallelFor, ParallelReduce, ParallelScan };

/// Base class for profiling tools. Default implementations are no-ops, so a
/// tool overrides only the callbacks it cares about. Callbacks may fire
/// concurrently from multiple threads (simmpi ranks are threads); tools must
/// be thread-safe.
class Tool {
 public:
  virtual ~Tool() = default;

  virtual void begin_parallel_for(const std::string& /*name*/, bool /*device*/,
                                  std::uint64_t /*items*/,
                                  std::uint64_t /*kid*/) {}
  virtual void end_parallel_for(std::uint64_t /*kid*/) {}
  virtual void begin_parallel_reduce(const std::string& /*name*/,
                                     bool /*device*/, std::uint64_t /*items*/,
                                     std::uint64_t /*kid*/) {}
  virtual void end_parallel_reduce(std::uint64_t /*kid*/) {}
  virtual void begin_parallel_scan(const std::string& /*name*/,
                                   bool /*device*/, std::uint64_t /*items*/,
                                   std::uint64_t /*kid*/) {}
  virtual void end_parallel_scan(std::uint64_t /*kid*/) {}

  virtual void push_region(const std::string& /*name*/) {}
  virtual void pop_region(const std::string& /*name*/) {}

  virtual void allocate_data(const char* /*space*/,
                             const std::string& /*label*/,
                             const void* /*ptr*/, std::uint64_t /*bytes*/) {}
  virtual void deallocate_data(const char* /*space*/,
                               const std::string& /*label*/,
                               const void* /*ptr*/, std::uint64_t /*bytes*/) {}

  virtual void begin_deep_copy(const char* /*dst_space*/,
                               const std::string& /*dst_label*/,
                               const char* /*src_space*/,
                               const std::string& /*src_label*/,
                               std::uint64_t /*bytes*/, std::uint64_t /*id*/) {}
  virtual void end_deep_copy(std::uint64_t /*id*/) {}

  virtual void fence(const std::string& /*name*/) {}

  /// A named counter sample (KokkosP has no direct analogue; Chrome traces
  /// render these as "ph":"C" counter tracks). Emitted by the telemetry
  /// sink (ring drop totals) and the batch scheduler (queue depth).
  virtual void counter(const std::string& /*name*/, double /*value*/) {}

  /// Extension: a device kernel's chunk [begin,end) executing on pool worker
  /// `worker`. Fires on the worker's own thread.
  virtual void begin_worker_chunk(std::uint64_t /*kid*/, int /*worker*/,
                                  std::uint64_t /*begin*/,
                                  std::uint64_t /*end*/) {}
  virtual void end_worker_chunk(std::uint64_t /*kid*/, int /*worker*/) {}

  /// Called once when the tool is flushed (deregistration, explicit
  /// finalize_tools(), or process exit) — write output files here.
  virtual void finalize() {}
};

void register_tool(std::shared_ptr<Tool> tool);
void deregister_tool(const std::shared_ptr<Tool>& tool);

/// True when at least one tool is registered (relaxed load; the fast-path
/// guard every event site uses).
bool tooling_active();

/// finalize() every registered tool (idempotent per tool by convention) and
/// clear the registry. Installed via atexit on first registration so traces
/// are flushed even when nobody deregisters explicitly.
void finalize_tools();

// ---------------------------------------------------------------------------
// Event dispatch (called by core.hpp / team.hpp / view.hpp / dualview.hpp /
// engine code). All return immediately when no tool is registered; kernel and
// deep-copy IDs are 0 in that case and the matching end_* is a no-op.
// ---------------------------------------------------------------------------

std::uint64_t begin_kernel(KernelType t, const std::string& name, bool device,
                           std::uint64_t items);
void end_kernel(KernelType t, std::uint64_t kid);

void push_region(std::string_view name);
void pop_region();

void allocate_data(const char* space, const std::string& label,
                   const void* ptr, std::uint64_t bytes);
void deallocate_data(const char* space, const std::string& label,
                     const void* ptr, std::uint64_t bytes);

std::uint64_t begin_deep_copy(const char* dst_space,
                              const std::string& dst_label,
                              const char* src_space,
                              const std::string& src_label,
                              std::uint64_t bytes);
void end_deep_copy(std::uint64_t id);

void fence_event(const std::string& name);

/// Broadcast a counter sample to every registered tool (no-op when none).
void count_event(const std::string& name, double value);

void begin_worker_chunk(std::uint64_t kid, int worker, std::uint64_t begin,
                        std::uint64_t end);
void end_worker_chunk(std::uint64_t kid, int worker);

// ---------------------------------------------------------------------------
// Thread identity (timeline tracks + per-rank output scoping)
// ---------------------------------------------------------------------------

/// Small dense id for the calling OS thread (assigned on first use) — the
/// timeline track id ChromeTrace uses.
int thread_track_id();

/// Human name for this thread's track ("rank-2", "pool-worker-3"); recorded
/// globally, retrievable via thread_track_names().
void set_thread_name(const std::string& name);
std::map<int, std::string> thread_track_names();

/// Logical owner tag for events emitted by this thread (simmpi sets the rank
/// id on rank threads). -1 = untagged (main thread, pool workers).
void set_thread_tag(int tag);
int thread_tag();

// ---------------------------------------------------------------------------
// RAII helpers
// ---------------------------------------------------------------------------

/// Scoped kernel event: begin in the constructor, end in the destructor, so
/// ends balance begins even when a functor throws.
class ScopedKernel {
 public:
  ScopedKernel(KernelType t, const std::string& name, bool device,
               std::uint64_t items)
      : type_(t), kid_(begin_kernel(t, name, device, items)) {}
  ~ScopedKernel() { end_kernel(type_, kid_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;
  std::uint64_t id() const { return kid_; }

 private:
  KernelType type_;
  std::uint64_t kid_;
};

/// Scoped named region (push/pop balanced under exceptions).
class ScopedRegion {
 public:
  explicit ScopedRegion(std::string_view name) { push_region(name); }
  ~ScopedRegion() { pop_region(); }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;
};

/// Scoped deep-copy event.
class ScopedDeepCopy {
 public:
  ScopedDeepCopy(const char* dst_space, const std::string& dst_label,
                 const char* src_space, const std::string& src_label,
                 std::uint64_t bytes)
      : id_(begin_deep_copy(dst_space, dst_label, src_space, src_label,
                            bytes)) {}
  ~ScopedDeepCopy() { end_deep_copy(id_); }
  ScopedDeepCopy(const ScopedDeepCopy&) = delete;
  ScopedDeepCopy& operator=(const ScopedDeepCopy&) = delete;

 private:
  std::uint64_t id_;
};

/// Scoped worker-chunk event (fires on the pool worker's thread). No-op when
/// kid == 0 (no tool was registered at kernel begin).
class ScopedWorkerChunk {
 public:
  ScopedWorkerChunk(std::uint64_t kid, int worker, std::uint64_t begin,
                    std::uint64_t end)
      : kid_(kid), worker_(worker) {
    if (kid_) begin_worker_chunk(kid_, worker_, begin, end);
  }
  ~ScopedWorkerChunk() {
    if (kid_) end_worker_chunk(kid_, worker_);
  }
  ScopedWorkerChunk(const ScopedWorkerChunk&) = delete;
  ScopedWorkerChunk& operator=(const ScopedWorkerChunk&) = delete;

 private:
  std::uint64_t kid_;
  int worker_;
};

}  // namespace kk::profiling
