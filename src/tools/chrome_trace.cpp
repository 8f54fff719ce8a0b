#include "tools/chrome_trace.hpp"

#include <chrono>
#include <fstream>
#include <set>

#include "tools/json.hpp"

namespace mlk::tools {

namespace {

double steady_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Worker-chunk spans share the open-span map with kernels/deep copies; give
// them a disjoint key space: high bit set, worker rank in the low bits.
std::uint64_t chunk_key(std::uint64_t kid, int worker) {
  return (1ULL << 63) | (kid << 12) | (std::uint64_t(worker) & 0xFFF);
}

}  // namespace

ChromeTrace::ChromeTrace(std::string path, int only_tag)
    : path_(std::move(path)), only_tag_(only_tag), t0_us_(steady_us()) {}

ChromeTrace::~ChromeTrace() { finalize(); }

double ChromeTrace::now_us() const { return steady_us() - t0_us_; }

bool ChromeTrace::accepts_current_thread() const {
  return only_tag_ == kNoFilter ||
         kk::profiling::thread_tag() == only_tag_;
}

void ChromeTrace::open(std::uint64_t key, const std::string& name,
                       const char* cat, std::uint64_t items) {
  if (!accepts_current_thread()) return;
  OpenSpan span{name, cat, now_us(), kk::profiling::thread_track_id(),
                kk::profiling::thread_tag(), items};
  std::lock_guard<std::mutex> lk(mu_);
  if (finalized_) return;
  open_[key] = std::move(span);
}

void ChromeTrace::close(std::uint64_t key) {
  const double t1 = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  if (finalized_) return;
  auto it = open_.find(key);
  if (it == open_.end()) return;
  const OpenSpan& o = it->second;
  events_.push_back(Event{o.name, o.cat, 'X', o.ts_us, t1 - o.ts_us, o.tid,
                          o.tag, o.items});
  open_.erase(it);
}

void ChromeTrace::begin_parallel_for(const std::string& name, bool device,
                                     std::uint64_t items, std::uint64_t kid) {
  open(kid, name, device ? "kernel,device" : "kernel", items);
}
void ChromeTrace::end_parallel_for(std::uint64_t kid) { close(kid); }
void ChromeTrace::begin_parallel_reduce(const std::string& name, bool device,
                                        std::uint64_t items,
                                        std::uint64_t kid) {
  open(kid, name, device ? "kernel,device" : "kernel", items);
}
void ChromeTrace::end_parallel_reduce(std::uint64_t kid) { close(kid); }
void ChromeTrace::begin_parallel_scan(const std::string& name, bool device,
                                      std::uint64_t items, std::uint64_t kid) {
  open(kid, name, device ? "kernel,device" : "kernel", items);
}
void ChromeTrace::end_parallel_scan(std::uint64_t kid) { close(kid); }

void ChromeTrace::push_region(const std::string& name) {
  if (!accepts_current_thread()) return;
  Event e{name, "region", 'B', now_us(), 0.0,
          kk::profiling::thread_track_id(), kk::profiling::thread_tag(), 0};
  std::lock_guard<std::mutex> lk(mu_);
  if (!finalized_) events_.push_back(std::move(e));
}

void ChromeTrace::pop_region(const std::string& name) {
  if (!accepts_current_thread()) return;
  Event e{name, "region", 'E', now_us(), 0.0,
          kk::profiling::thread_track_id(), kk::profiling::thread_tag(), 0};
  std::lock_guard<std::mutex> lk(mu_);
  if (!finalized_) events_.push_back(std::move(e));
}

void ChromeTrace::begin_deep_copy(const char* dst_space,
                                  const std::string& /*dst_label*/,
                                  const char* src_space,
                                  const std::string& /*src_label*/,
                                  std::uint64_t bytes, std::uint64_t id) {
  open(id, std::string("deep_copy[") + dst_space + "<-" + src_space + "]",
       "deep_copy", bytes);
}
void ChromeTrace::end_deep_copy(std::uint64_t id) { close(id); }

void ChromeTrace::fence(const std::string& name) {
  if (!accepts_current_thread()) return;
  Event e{name, "fence", 'i', now_us(), 0.0,
          kk::profiling::thread_track_id(), kk::profiling::thread_tag(), 0};
  std::lock_guard<std::mutex> lk(mu_);
  if (!finalized_) events_.push_back(std::move(e));
}

void ChromeTrace::counter(const std::string& name, double value) {
  if (!accepts_current_thread()) return;
  Event e{name, "counter", 'C', now_us(), 0.0,
          kk::profiling::thread_track_id(), kk::profiling::thread_tag(), 0};
  e.arg_value = value;
  std::lock_guard<std::mutex> lk(mu_);
  if (!finalized_) events_.push_back(std::move(e));
}

void ChromeTrace::allocate_data(const char* /*space*/,
                                const std::string& /*label*/,
                                const void* /*ptr*/, std::uint64_t bytes) {
  if (!accepts_current_thread()) return;
  const double t = now_us();
  const int tid = kk::profiling::thread_track_id();
  const int tag = kk::profiling::thread_tag();
  std::lock_guard<std::mutex> lk(mu_);
  if (finalized_) return;
  live_bytes_ += bytes;
  if (live_bytes_ > hwm_bytes_) hwm_bytes_ = live_bytes_;
  Event live{"mem.live_bytes", "counter", 'C', t, 0.0, tid, tag, 0};
  live.arg_value = double(live_bytes_);
  events_.push_back(std::move(live));
  Event hwm{"mem.hwm_bytes", "counter", 'C', t, 0.0, tid, tag, 0};
  hwm.arg_value = double(hwm_bytes_);
  events_.push_back(std::move(hwm));
}

void ChromeTrace::deallocate_data(const char* /*space*/,
                                  const std::string& /*label*/,
                                  const void* /*ptr*/, std::uint64_t bytes) {
  if (!accepts_current_thread()) return;
  const double t = now_us();
  const int tid = kk::profiling::thread_track_id();
  const int tag = kk::profiling::thread_tag();
  std::lock_guard<std::mutex> lk(mu_);
  if (finalized_) return;
  live_bytes_ = bytes <= live_bytes_ ? live_bytes_ - bytes : 0;
  Event live{"mem.live_bytes", "counter", 'C', t, 0.0, tid, tag, 0};
  live.arg_value = double(live_bytes_);
  events_.push_back(std::move(live));
}

void ChromeTrace::begin_worker_chunk(std::uint64_t kid, int worker,
                                     std::uint64_t begin, std::uint64_t end) {
  std::string name;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = open_.find(kid);
    // Inherit the kernel's name (begin_parallel_* precedes worker chunks on
    // the dispatching thread). The kernel span may be filtered out when
    // only_tag_ scopes to a rank; chunks then vanish with it.
    if (it == open_.end()) return;
    name = it->second.name;
  }
  open(chunk_key(kid, worker), name, "chunk", end - begin);
}

void ChromeTrace::end_worker_chunk(std::uint64_t kid, int worker) {
  close(chunk_key(kid, worker));
}

void ChromeTrace::write_file(const std::string& path,
                             const std::vector<const Event*>& events,
                             const std::map<int, std::string>& names) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::set<int> tids;
  for (const Event* e : events) tids.insert(e->tid);
  for (const int tid : tids) {
    std::string name = "thread-" + std::to_string(tid);
    auto it = names.find(tid);
    if (it != names.end()) name = it->second;
    if (!first) f << ",";
    first = false;
    f << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
      << ",\"args\":{\"name\":" << json::quote(name) << "}}";
  }
  for (const Event* e : events) {
    if (!first) f << ",";
    first = false;
    f << "{\"name\":" << json::quote(e->name) << ",\"cat\":\"" << e->cat
      << "\",\"ph\":\"" << e->ph << "\",\"pid\":0,\"tid\":" << e->tid
      << ",\"ts\":" << json::num(e->ts_us);
    if (e->ph == 'X') f << ",\"dur\":" << json::num(e->dur_us);
    if (e->ph == 'i') f << ",\"s\":\"t\"";
    if (e->ph == 'C')
      f << ",\"args\":{\"value\":" << json::num(e->arg_value) << "}";
    else if (e->arg_items)
      f << ",\"args\":{\"items\":" << e->arg_items << "}";
    f << "}";
  }
  f << "]}\n";
}

void ChromeTrace::finalize() {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (finalized_) return;
    finalized_ = true;
    events.swap(events_);
    open_.clear();
  }
  const auto names = kk::profiling::thread_track_names();

  if (only_tag_ != kNoFilter) {
    std::vector<const Event*> all;
    all.reserve(events.size());
    for (const Event& e : events) all.push_back(&e);
    write_file(path_, all, names);
    return;
  }

  // Split mode: rank-tagged events go to path.rank<r>; untagged events
  // (serial main thread, pool workers) go to the base path.
  std::set<int> tags;
  for (const Event& e : events)
    if (e.tag >= 0) tags.insert(e.tag);

  std::vector<const Event*> base;
  for (const Event& e : events)
    if (e.tag < 0) base.push_back(&e);
  // A serial run has no tagged events: the base file is the whole trace.
  // With ranks present the base file still gets the shared worker tracks.
  write_file(path_, base, names);
  for (const int tag : tags) {
    std::vector<const Event*> sel;
    for (const Event& e : events)
      if (e.tag == tag) sel.push_back(&e);
    write_file(path_ + ".rank" + std::to_string(tag), sel, names);
  }
}

}  // namespace mlk::tools
