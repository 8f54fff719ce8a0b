#include "tools/kernel_timer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "tools/json.hpp"

namespace mlk::tools {

namespace {
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void KernelTimer::begin(const std::string& name, bool device,
                        std::uint64_t items, std::uint64_t kid) {
  const int tag = kk::profiling::thread_tag();
  std::lock_guard<std::mutex> lk(mu_);
  open_[kid] = Open{tag, name, device, items, now_seconds()};
}

void KernelTimer::end(std::uint64_t kid) {
  const double t1 = now_seconds();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = open_.find(kid);
  if (it == open_.end()) return;  // began before this tool was registered
  const Open& o = it->second;
  const double dt = t1 - o.t0;
  Stat& s = stats_[{o.tag, o.name}];
  if (s.count == 0 || dt < s.min_s) s.min_s = dt;
  if (dt > s.max_s) s.max_s = dt;
  s.count++;
  if (o.device) s.device_count++;
  s.total_items += o.items;
  s.total_s += dt;
  open_.erase(it);
}

void KernelTimer::begin_parallel_for(const std::string& name, bool device,
                                     std::uint64_t items, std::uint64_t kid) {
  begin(name, device, items, kid);
}
void KernelTimer::end_parallel_for(std::uint64_t kid) { end(kid); }
void KernelTimer::begin_parallel_reduce(const std::string& name, bool device,
                                        std::uint64_t items,
                                        std::uint64_t kid) {
  begin(name, device, items, kid);
}
void KernelTimer::end_parallel_reduce(std::uint64_t kid) { end(kid); }
void KernelTimer::begin_parallel_scan(const std::string& name, bool device,
                                      std::uint64_t items, std::uint64_t kid) {
  begin(name, device, items, kid);
}
void KernelTimer::end_parallel_scan(std::uint64_t kid) { end(kid); }

void KernelTimer::begin_deep_copy(const char* dst_space,
                                  const std::string& /*dst_label*/,
                                  const char* src_space,
                                  const std::string& /*src_label*/,
                                  std::uint64_t bytes, std::uint64_t id) {
  begin(std::string("deep_copy[") + dst_space + "<-" + src_space + "]",
        /*device=*/true, bytes, id);
}
void KernelTimer::end_deep_copy(std::uint64_t id) { end(id); }

std::map<std::string, KernelTimer::Stat> KernelTimer::stats() const {
  std::map<std::string, Stat> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, s] : stats_) {
    Stat& o = out[key.second];
    if (o.count == 0 || s.min_s < o.min_s) o.min_s = s.min_s;
    if (s.max_s > o.max_s) o.max_s = s.max_s;
    o.count += s.count;
    o.device_count += s.device_count;
    o.total_items += s.total_items;
    o.total_s += s.total_s;
  }
  return out;
}

std::map<std::string, KernelTimer::Stat> KernelTimer::stats_for_tag(
    int tag) const {
  std::map<std::string, Stat> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, s] : stats_)
    if (key.first == tag) out[key.second] = s;
  return out;
}

std::vector<int> KernelTimer::tags() const {
  std::vector<int> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, s] : stats_) {
    (void)s;
    if (key.first >= 0 &&
        std::find(out.begin(), out.end(), key.first) == out.end())
      out.push_back(key.first);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string KernelTimer::text_report() const {
  const auto merged = stats();
  std::vector<std::pair<std::string, Stat>> rows(merged.begin(), merged.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_s > b.second.total_s;
  });
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-40s %8s %12s %12s %12s %12s %14s\n",
                "kernel", "count", "total(s)", "min(s)", "max(s)", "mean(s)",
                "items/s");
  out += buf;
  for (const auto& [name, s] : rows) {
    std::snprintf(buf, sizeof buf,
                  "%-40s %8llu %12.6f %12.3e %12.3e %12.3e %14.4e\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_s, s.min_s, s.max_s, s.mean_s(), s.items_per_s());
    out += buf;
  }
  return out;
}

std::string KernelTimer::json_for(const std::map<std::string, Stat>& stats) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, s] : stats) {
    if (!first) out += ",";
    first = false;
    out += json::quote(name) + ":{";
    out += "\"count\":" + std::to_string(s.count);
    out += ",\"device_count\":" + std::to_string(s.device_count);
    out += ",\"total_items\":" + std::to_string(s.total_items);
    out += ",\"total_s\":" + json::num(s.total_s);
    out += ",\"min_s\":" + json::num(s.min_s);
    out += ",\"max_s\":" + json::num(s.max_s);
    out += ",\"mean_s\":" + json::num(s.mean_s());
    out += ",\"items_per_s\":" + json::num(s.items_per_s());
    out += "}";
  }
  out += "}";
  return out;
}

std::string KernelTimer::json_fragment() const { return json_for(stats()); }

std::string KernelTimer::json_fragment(int tag) const {
  return json_for(stats_for_tag(tag));
}

}  // namespace mlk::tools
