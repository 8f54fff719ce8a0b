#include "tools/observability.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "tools/chrome_trace.hpp"
#include "tools/telemetry/telemetry.hpp"

namespace mlk::tools {

namespace {

// Emits the combined kernels+memory report when the tool set registered by
// MLK_PROFILE is flushed at process exit. Registered after the two
// collecting tools so its finalize() sees their final state.
class EnvProfileDump : public kk::profiling::Tool {
 public:
  EnvProfileDump(std::string path, std::shared_ptr<KernelTimer> timer,
                 std::shared_ptr<MemorySpaceTracker> mem)
      : path_(std::move(path)),
        timer_(std::move(timer)),
        mem_(std::move(mem)) {}

  void finalize() override {
    if (path_ == "-") {
      std::fputs(timer_->text_report().c_str(), stderr);
      std::fputs(mem_->text_report().c_str(), stderr);
    } else {
      write_profile_json(path_, timer_->json_fragment(), *mem_);
      // Per-rank kernel timings when simmpi ranks ran (path.rank<r>).
      for (const int tag : timer_->tags()) {
        std::ofstream f(path_ + ".rank" + std::to_string(tag));
        f << "{\"kernels\":" << timer_->json_fragment(tag) << "}\n";
      }
    }
  }

 private:
  std::string path_;
  std::shared_ptr<KernelTimer> timer_;
  std::shared_ptr<MemorySpaceTracker> mem_;
};

}  // namespace

void init_from_env() {
  // Process-level env hooks register exactly once; call_once (rather than a
  // bare bool) so concurrent first callers — the batch server initializes
  // from its scheduler thread — can't double-register or see a half-done
  // registration.
  static std::once_flag once;
  std::call_once(once, [] {

  if (const char* p = std::getenv("MLK_PROFILE")) {
    const std::string val(p);
    if (!val.empty() && val != "0" && val != "off") {
      auto timer = std::make_shared<KernelTimer>();
      auto mem = std::make_shared<MemorySpaceTracker>();
      kk::profiling::register_tool(timer);
      kk::profiling::register_tool(mem);
      kk::profiling::register_tool(std::make_shared<EnvProfileDump>(
          val == "1" || val == "on" ? "-" : val, std::move(timer),
          std::move(mem)));
    }
  }

  if (const char* t = std::getenv("MLK_TRACE")) {
    const std::string val(t);
    if (!val.empty() && val != "0" && val != "off")
      kk::profiling::register_tool(std::make_shared<ChromeTrace>(val));
  }

  if (const char* t = std::getenv("MLK_TELEMETRY")) {
    const std::string val(t);
    if (!val.empty() && val != "0" && val != "off")
      start_telemetry_from_spec(val);
  }
  });
}

bool start_telemetry_from_spec(const std::string& spec) {
  telemetry::Config cfg;
  std::string::size_type opt = spec.find(':');
  cfg.path = spec.substr(0, opt);
  while (opt != std::string::npos) {
    const std::string::size_type start = opt + 1;
    opt = spec.find(',', start);
    const std::string kv = spec.substr(
        start, opt == std::string::npos ? std::string::npos : opt - start);
    const std::string::size_type eq = kv.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "telemetry: malformed option '%s'\n", kv.c_str());
      return false;
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "interval_ms")
      cfg.interval_ms = std::atoi(val.c_str());
    else if (key == "coords_every")
      cfg.coords_every = std::atoi(val.c_str());
    else if (key == "rdf_bins")
      cfg.rdf_bins = std::atoi(val.c_str());
    else if (key == "rdf_rcut")
      cfg.rdf_rcut = std::atof(val.c_str());
    else if (key == "insitu_max_atoms")
      cfg.insitu_max_atoms = std::size_t(std::atoll(val.c_str()));
    else {
      std::fprintf(stderr, "telemetry: unknown option '%s'\n", key.c_str());
      return false;
    }
  }
  if (cfg.interval_ms <= 0) cfg.interval_ms = 50;
  telemetry::Hub::instance().start(cfg);
  return true;
}

void write_profile_json(const std::string& path, const std::string& kernels,
                        const MemorySpaceTracker& mem) {
  std::ofstream f(path);
  f << "{\"kernels\":" << kernels << ",\"memory\":" << mem.json_fragment()
    << "}\n";
}

}  // namespace mlk::tools
