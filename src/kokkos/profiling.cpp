#include "kokkos/profiling.hpp"

#include <cstdlib>
#include <mutex>
#include <vector>

namespace kk::profiling {

namespace {

// Launch counting: the one always-on count, two relaxed totals.
std::atomic<bool> g_count_enabled{true};
std::atomic<std::uint64_t> g_launches{0};
std::atomic<std::uint64_t> g_device_launches{0};

// ---------------------------------------------------------------------------
// Tool registry. The registered set is published as an immutable vector
// behind a shared_ptr so event dispatch never holds the registry lock while
// running tool callbacks.
// ---------------------------------------------------------------------------

using ToolVec = std::vector<std::shared_ptr<Tool>>;

struct ToolState {
  std::mutex mu;
  std::shared_ptr<const ToolVec> tools = std::make_shared<const ToolVec>();
  bool atexit_installed = false;
};

std::atomic<bool> g_have_tools{false};

// Leaked on purpose: View deallocation events can fire from static
// destructors (e.g. cached PotentialStats holding Views); a leaked state
// object keeps every ordering safe.
ToolState& tool_state() {
  static ToolState* s = new ToolState;
  return *s;
}

std::shared_ptr<const ToolVec> current_tools() {
  auto& ts = tool_state();
  std::lock_guard<std::mutex> lk(ts.mu);
  return ts.tools;
}

std::atomic<std::uint64_t> g_next_id{1};

// Per-thread region stack so pop_region can hand tools the region name and
// stay balanced (pops on an empty stack are ignored). Slots past the depth
// keep their buffers, so a warm stack pushes without allocating.
thread_local std::vector<std::string> t_region_stack;
thread_local std::size_t t_region_depth = 0;

// Thread identity.
std::atomic<int> g_next_track{0};
thread_local int t_track_id = -1;
thread_local int t_tag = -1;

struct TrackNames {
  std::mutex mu;
  std::map<int, std::string> names;
};
TrackNames& track_names() {
  static TrackNames* s = new TrackNames;
  return *s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Launch counting
// ---------------------------------------------------------------------------

bool set_enabled(bool on) {
  return g_count_enabled.exchange(on, std::memory_order_relaxed);
}

std::uint64_t total_launches() {
  return g_launches.load(std::memory_order_relaxed);
}

std::uint64_t total_device_launches() {
  return g_device_launches.load(std::memory_order_relaxed);
}

void reset() {
  g_launches.store(0, std::memory_order_relaxed);
  g_device_launches.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Tool registry
// ---------------------------------------------------------------------------

void register_tool(std::shared_ptr<Tool> tool) {
  if (!tool) return;
  auto& ts = tool_state();
  std::lock_guard<std::mutex> lk(ts.mu);
  auto next = std::make_shared<ToolVec>(*ts.tools);
  next->push_back(std::move(tool));
  ts.tools = std::move(next);
  g_have_tools.store(true, std::memory_order_relaxed);
  if (!ts.atexit_installed) {
    ts.atexit_installed = true;
    std::atexit(finalize_tools);
  }
}

void deregister_tool(const std::shared_ptr<Tool>& tool) {
  auto& ts = tool_state();
  std::lock_guard<std::mutex> lk(ts.mu);
  auto next = std::make_shared<ToolVec>(*ts.tools);
  std::erase(*next, tool);
  g_have_tools.store(!next->empty(), std::memory_order_relaxed);
  ts.tools = std::move(next);
}

bool tooling_active() {
  return g_have_tools.load(std::memory_order_relaxed);
}

void finalize_tools() {
  std::shared_ptr<const ToolVec> tools;
  {
    auto& ts = tool_state();
    std::lock_guard<std::mutex> lk(ts.mu);
    tools = ts.tools;
    ts.tools = std::make_shared<const ToolVec>();
    g_have_tools.store(false, std::memory_order_relaxed);
  }
  for (const auto& t : *tools) t->finalize();
}

// ---------------------------------------------------------------------------
// Event dispatch
// ---------------------------------------------------------------------------

std::uint64_t begin_kernel(KernelType t, const std::string& name, bool device,
                           std::uint64_t items) {
  if (g_count_enabled.load(std::memory_order_relaxed)) {
    g_launches.fetch_add(1, std::memory_order_relaxed);
    if (device) g_device_launches.fetch_add(1, std::memory_order_relaxed);
  }
  if (!tooling_active()) return 0;
  const std::uint64_t kid =
      g_next_id.fetch_add(1, std::memory_order_relaxed);
  auto tools = current_tools();
  for (const auto& tool : *tools) {
    switch (t) {
      case KernelType::ParallelFor:
        tool->begin_parallel_for(name, device, items, kid);
        break;
      case KernelType::ParallelReduce:
        tool->begin_parallel_reduce(name, device, items, kid);
        break;
      case KernelType::ParallelScan:
        tool->begin_parallel_scan(name, device, items, kid);
        break;
    }
  }
  return kid;
}

void end_kernel(KernelType t, std::uint64_t kid) {
  if (kid == 0 || !tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) {
    switch (t) {
      case KernelType::ParallelFor:
        tool->end_parallel_for(kid);
        break;
      case KernelType::ParallelReduce:
        tool->end_parallel_reduce(kid);
        break;
      case KernelType::ParallelScan:
        tool->end_parallel_scan(kid);
        break;
    }
  }
}

void push_region(std::string_view name) {
  // Keep the stack balanced even while no tool listens, so a tool
  // registered mid-region still sees matched pops.
  if (t_region_depth == t_region_stack.size()) t_region_stack.emplace_back();
  std::string& slot = t_region_stack[t_region_depth++];
  slot.assign(name);
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) tool->push_region(slot);
}

void pop_region() {
  if (t_region_depth == 0) return;
  const std::string& name = t_region_stack[--t_region_depth];
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) tool->pop_region(name);
}

void allocate_data(const char* space, const std::string& label,
                   const void* ptr, std::uint64_t bytes) {
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) tool->allocate_data(space, label, ptr, bytes);
}

void deallocate_data(const char* space, const std::string& label,
                     const void* ptr, std::uint64_t bytes) {
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools)
    tool->deallocate_data(space, label, ptr, bytes);
}

std::uint64_t begin_deep_copy(const char* dst_space,
                              const std::string& dst_label,
                              const char* src_space,
                              const std::string& src_label,
                              std::uint64_t bytes) {
  if (!tooling_active()) return 0;
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  auto tools = current_tools();
  for (const auto& tool : *tools)
    tool->begin_deep_copy(dst_space, dst_label, src_space, src_label, bytes,
                          id);
  return id;
}

void end_deep_copy(std::uint64_t id) {
  if (id == 0 || !tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) tool->end_deep_copy(id);
}

void fence_event(const std::string& name) {
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) tool->fence(name);
}

void count_event(const std::string& name, double value) {
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) tool->counter(name, value);
}

void begin_worker_chunk(std::uint64_t kid, int worker, std::uint64_t begin,
                        std::uint64_t end) {
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools)
    tool->begin_worker_chunk(kid, worker, begin, end);
}

void end_worker_chunk(std::uint64_t kid, int worker) {
  if (!tooling_active()) return;
  auto tools = current_tools();
  for (const auto& tool : *tools) tool->end_worker_chunk(kid, worker);
}

// ---------------------------------------------------------------------------
// Thread identity
// ---------------------------------------------------------------------------

int thread_track_id() {
  if (t_track_id < 0)
    t_track_id = g_next_track.fetch_add(1, std::memory_order_relaxed);
  return t_track_id;
}

void set_thread_name(const std::string& name) {
  auto& tn = track_names();
  std::lock_guard<std::mutex> lk(tn.mu);
  tn.names[thread_track_id()] = name;
}

std::map<int, std::string> thread_track_names() {
  auto& tn = track_names();
  std::lock_guard<std::mutex> lk(tn.mu);
  return tn.names;
}

void set_thread_tag(int tag) { t_tag = tag; }

int thread_tag() { return t_tag; }

}  // namespace kk::profiling
