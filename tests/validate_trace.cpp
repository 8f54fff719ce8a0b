// validate_trace <trace.json> — tier-1 smoke checker for chrome://tracing
// output (tests/trace_smoke.sh and the other smokes). Exits 0 iff the file
// parses as JSON and the traceEvents array contains kernel spans,
// Verlet-phase region spans, and at least one deep-copy span — the
// observable contract of the profiling hook layer on a real run — and no
// Verlet section region (kSectionRegions) opens inside another on the same
// thread, so each section's time is counted once.
//
// With --require-instance-tracks it additionally demands the per-instance
// thread tracks produced by the overlapped Verlet loop: at least two
// "thread_name" metadata entries beginning with "instance-" (the compute
// and comm kk::DeviceInstance stream threads), with at least one kernel or
// region span recorded on an instance track.
//
// Counter events (ph:"C" — memory watermarks, telemetry ring drops, batch
// scheduler queue depth) are always structurally validated: every counter
// must carry a numeric args.value. --require-counters demands that at least
// one counter track exists (any traced run emits mem.* counters), and each
// --require-counter=<name> demands a specific track (run_tier1.sh
// --telemetry asks for telemetry.ring_drops).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/json.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  bool require_instances = false;
  bool require_counters = false;
  std::vector<std::string> required_counter_names;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-instance-tracks") == 0)
      require_instances = true;
    else if (std::strcmp(argv[i], "--require-counters") == 0)
      require_counters = true;
    else if (std::strncmp(argv[i], "--require-counter=", 18) == 0)
      required_counter_names.push_back(argv[i] + 18);
    else
      path = argv[i];
  }
  if (!path) {
    std::fprintf(stderr,
                 "usage: validate_trace [--require-instance-tracks] "
                 "[--require-counters] [--require-counter=<name>...] "
                 "<trace.json>\n");
    return 2;
  }
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "validate_trace: cannot open '%s'\n", path);
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  mlk::json::Value doc;
  try {
    doc = mlk::json::parse(ss.str());
  } catch (const mlk::json::ParseError& e) {
    std::fprintf(stderr, "validate_trace: %s\n", e.what());
    return 1;
  }

  const mlk::json::Value& events = doc["traceEvents"];
  if (!events.is_array() || events.arr.empty()) {
    std::fprintf(stderr, "validate_trace: traceEvents missing or empty\n");
    return 1;
  }

  // Pass 1: map tid -> thread_name from "M" metadata events, and find the
  // tracks named by kk::DeviceInstance stream threads.
  std::set<double> instance_tids;
  for (const auto& e : events.arr) {
    if (e["ph"].str != "M" || e["name"].str != "thread_name") continue;
    const std::string& tname = e["args"]["name"].str;
    if (tname.rfind("instance-", 0) == 0) instance_tids.insert(e["tid"].number);
  }

  int kernels = 0, verlet_regions = 0, deep_copies = 0;
  int instance_spans = 0;
  int nested_sections = 0;
  std::map<double, int> open_sections;  // tid -> open section regions
  int counters = 0, bad_counters = 0;
  std::set<std::string> counter_names;
  for (const auto& e : events.arr) {
    if (e["ph"].str == "C") {
      ++counters;
      counter_names.insert(e["name"].str);
      if (!e["args"]["value"].is_number()) ++bad_counters;
      continue;
    }
    const std::string& cat = e["cat"].str;
    if (cat.rfind("kernel", 0) == 0) ++kernels;
    else if (cat == "deep_copy") ++deep_copies;
    else if (cat == "region" && e["name"].str.rfind("Verlet::", 0) == 0)
      ++verlet_regions;
    if (cat == "region" &&
        std::find(mlk::kSectionRegions.begin(), mlk::kSectionRegions.end(),
                  e["name"].str) != mlk::kSectionRegions.end()) {
      int& open = open_sections[e["tid"].number];
      if (e["ph"].str == "B")
        nested_sections += open++ > 0;
      else
        --open;
    }
    if ((cat.rfind("kernel", 0) == 0 || cat == "region") &&
        instance_tids.count(e["tid"].number))
      ++instance_spans;
  }

  std::printf("validate_trace: %zu events (%d kernel, %d Verlet region, "
              "%d deep_copy, %zu instance tracks, %d instance spans, "
              "%d counter events on %zu tracks)\n",
              events.arr.size(), kernels, verlet_regions, deep_copies,
              instance_tids.size(), instance_spans, counters,
              counter_names.size());
  if (kernels == 0 || verlet_regions == 0 || deep_copies == 0) {
    std::fprintf(stderr, "validate_trace: missing required span kinds\n");
    return 1;
  }
  if (nested_sections > 0) {
    std::fprintf(stderr,
                 "validate_trace: %d Verlet section regions opened inside "
                 "another section\n",
                 nested_sections);
    return 1;
  }
  if (require_instances && (instance_tids.size() < 2 || instance_spans == 0)) {
    std::fprintf(stderr,
                 "validate_trace: expected >= 2 'instance-*' thread tracks "
                 "with spans (overlapped run)\n");
    return 1;
  }
  if (bad_counters > 0) {
    std::fprintf(stderr,
                 "validate_trace: %d ph:\"C\" events lack a numeric "
                 "args.value\n",
                 bad_counters);
    return 1;
  }
  if (require_counters && counters == 0) {
    std::fprintf(stderr, "validate_trace: expected counter (ph:\"C\") "
                         "events, found none\n");
    return 1;
  }
  for (const std::string& name : required_counter_names) {
    if (!counter_names.count(name)) {
      std::fprintf(stderr,
                   "validate_trace: required counter track '%s' missing\n",
                   name.c_str());
      return 1;
    }
  }
  return 0;
}
