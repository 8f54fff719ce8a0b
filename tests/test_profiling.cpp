// Profiling hook-layer tests: event begin/end balance (including under
// exceptions), kernel-id plumbing, launch counting from many threads, the
// built-in tools (KernelTimer stats, MemorySpaceTracker high-water marks,
// ChromeTrace well-formed JSON), and the `profile` / `trace` input-command
// round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "comm/simmpi.hpp"
#include "kokkos/core.hpp"
#include "kokkos/profiling.hpp"
#include "test_helpers.hpp"
#include "tools/chrome_trace.hpp"
#include "tools/json.hpp"
#include "tools/kernel_timer.hpp"
#include "tools/memory_tracker.hpp"

namespace mlk {
namespace {

namespace fs = std::filesystem;
namespace prof = kk::profiling;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Records every callback it receives (thread-safe: worker-chunk events fire
/// on pool threads).
class RecordingTool : public prof::Tool {
 public:
  struct Kernel {
    prof::KernelType type;
    std::string name;
    bool device;
    std::uint64_t items;
    std::uint64_t kid;
  };

  void begin_parallel_for(const std::string& name, bool device,
                          std::uint64_t items, std::uint64_t kid) override {
    add(prof::KernelType::ParallelFor, name, device, items, kid);
  }
  void end_parallel_for(std::uint64_t kid) override { add_end(kid); }
  void begin_parallel_reduce(const std::string& name, bool device,
                             std::uint64_t items, std::uint64_t kid) override {
    add(prof::KernelType::ParallelReduce, name, device, items, kid);
  }
  void end_parallel_reduce(std::uint64_t kid) override { add_end(kid); }
  void begin_parallel_scan(const std::string& name, bool device,
                           std::uint64_t items, std::uint64_t kid) override {
    add(prof::KernelType::ParallelScan, name, device, items, kid);
  }
  void end_parallel_scan(std::uint64_t kid) override { add_end(kid); }

  void push_region(const std::string& name) override {
    std::lock_guard<std::mutex> lk(mu_);
    pushes.push_back(name);
  }
  void pop_region(const std::string& name) override {
    std::lock_guard<std::mutex> lk(mu_);
    pops.push_back(name);
  }

  void begin_worker_chunk(std::uint64_t kid, int, std::uint64_t,
                          std::uint64_t) override {
    std::lock_guard<std::mutex> lk(mu_);
    chunk_begins.push_back(kid);
  }
  void end_worker_chunk(std::uint64_t kid, int) override {
    std::lock_guard<std::mutex> lk(mu_);
    chunk_ends.push_back(kid);
  }

  std::vector<Kernel> begins;
  std::vector<std::uint64_t> ends;
  std::vector<std::string> pushes, pops;
  std::vector<std::uint64_t> chunk_begins, chunk_ends;

 private:
  void add(prof::KernelType t, const std::string& name, bool device,
           std::uint64_t items, std::uint64_t kid) {
    std::lock_guard<std::mutex> lk(mu_);
    begins.push_back({t, name, device, items, kid});
  }
  void add_end(std::uint64_t kid) {
    std::lock_guard<std::mutex> lk(mu_);
    ends.push_back(kid);
  }
  std::mutex mu_;
};

/// Registers a tool for the test's lifetime.
template <class T>
struct Registered {
  std::shared_ptr<T> tool = std::make_shared<T>();
  Registered() { prof::register_tool(tool); }
  ~Registered() { prof::deregister_tool(tool); }
  T* operator->() { return tool.get(); }
};

TEST(ProfilingEvents, KernelBeginsAndEndsBalanceWithMatchingIds) {
  Registered<RecordingTool> rec;

  kk::parallel_for("prof::for_host", kk::RangePolicy<kk::Host>(0, 16),
                   [](std::size_t) {});
  kk::parallel_for("prof::for_dev", kk::RangePolicy<kk::Device>(0, 1024),
                   [](std::size_t) {});
  double sum = 0.0;
  kk::parallel_reduce("prof::reduce", kk::RangePolicy<kk::Host>(0, 8),
                      [](std::size_t i, double& s) { s += double(i); }, sum);

  ASSERT_EQ(rec->begins.size(), 3u);
  ASSERT_EQ(rec->ends.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(rec->begins[i].kid, 0u) << "kernel ids must be nonzero";
    EXPECT_EQ(rec->begins[i].kid, rec->ends[i])
        << "end must carry the begin's id (no interleaving here)";
  }
  EXPECT_EQ(rec->begins[0].name, "prof::for_host");
  EXPECT_FALSE(rec->begins[0].device);
  EXPECT_EQ(rec->begins[0].items, 16u);
  EXPECT_EQ(rec->begins[0].type, prof::KernelType::ParallelFor);
  EXPECT_TRUE(rec->begins[1].device);
  EXPECT_EQ(rec->begins[2].type, prof::KernelType::ParallelReduce);

  // Device dispatch ran on pool workers: every chunk begin is matched by an
  // end and carries the device kernel's id.
  ASSERT_FALSE(rec->chunk_begins.empty());
  EXPECT_EQ(rec->chunk_begins.size(), rec->chunk_ends.size());
  for (const std::uint64_t kid : rec->chunk_begins)
    EXPECT_EQ(kid, rec->begins[1].kid);
}

TEST(ProfilingEvents, ScanEmitsScanCallbacks) {
  Registered<RecordingTool> rec;
  std::vector<int> vals(64, 1);
  long total = 0;
  kk::parallel_scan("prof::scan", kk::RangePolicy<kk::Host>(0, vals.size()),
                    [&](std::size_t i, long& upd, bool final) {
                      if (final) vals[i] = int(upd);
                      upd += 1;
                    },
                    total);
  ASSERT_EQ(rec->begins.size(), 1u);
  EXPECT_EQ(rec->begins[0].type, prof::KernelType::ParallelScan);
  EXPECT_EQ(rec->ends.size(), 1u);
}

TEST(ProfilingEvents, RegionsBalanceUnderExceptions) {
  Registered<RecordingTool> rec;
  try {
    prof::ScopedRegion outer("outer");
    prof::ScopedRegion inner("inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  ASSERT_EQ(rec->pushes.size(), 2u);
  ASSERT_EQ(rec->pops.size(), 2u);
  // LIFO unwinding: inner pops first, and pop resolves the pushed name.
  EXPECT_EQ(rec->pops[0], "inner");
  EXPECT_EQ(rec->pops[1], "outer");
}

TEST(ProfilingEvents, KernelEndBalancesWhenFunctorThrows) {
  Registered<RecordingTool> rec;
  EXPECT_THROW(
      kk::parallel_for("prof::throws", kk::RangePolicy<kk::Host>(0, 4),
                       [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  ASSERT_EQ(rec->begins.size(), 1u);
  ASSERT_EQ(rec->ends.size(), 1u);
  EXPECT_EQ(rec->begins[0].kid, rec->ends[0]);
}

TEST(ProfilingEvents, NoToolsMeansKernelIdZero) {
  ASSERT_FALSE(prof::tooling_active());
  const std::uint64_t kid = prof::begin_kernel(
      prof::KernelType::ParallelFor, "prof::untooled", false, 1);
  EXPECT_EQ(kid, 0u);
  prof::end_kernel(prof::KernelType::ParallelFor, kid);  // must be a no-op
}

TEST(ProfilingCounting, ShardsMergeAcrossThreads) {
  // Launches from many threads all land in the one pair of totals.
  const bool prev = prof::set_enabled(true);
  prof::reset();
  constexpr int kThreads = 4, kPer = 2500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([] {
      for (int i = 0; i < kPer; ++i)
        prof::ScopedKernel k(prof::KernelType::ParallelFor, "prof::counted",
                             /*device=*/i % 2 == 0, 10);
    });
  for (auto& t : ts) t.join();

  EXPECT_EQ(prof::total_launches(), std::uint64_t(kThreads) * kPer);
  EXPECT_EQ(prof::total_device_launches(), std::uint64_t(kThreads) * kPer / 2);
  prof::reset();
  prof::set_enabled(prev);
}

TEST(ProfilingCounting, DisabledRecordsNothing) {
  const bool prev = prof::set_enabled(false);
  prof::reset();
  kk::parallel_for("prof::disabled", kk::RangePolicy<kk::Host>(0, 4),
                   [](std::size_t) {});
  kk::parallel_for("prof::disabled", kk::RangePolicy<kk::Device>(0, 4),
                   [](std::size_t) {});
  EXPECT_EQ(prof::total_launches(), 0u);
  EXPECT_EQ(prof::total_device_launches(), 0u);
  prof::set_enabled(prev);
}

TEST(KernelTimerTool, AccumulatesPerKernelStats) {
  Registered<tools::KernelTimer> timer;
  for (int r = 0; r < 5; ++r)
    kk::parallel_for("prof::timed", kk::RangePolicy<kk::Host>(0, 100),
                     [](std::size_t) {});
  kk::parallel_for("prof::timed_dev", kk::RangePolicy<kk::Device>(0, 100),
                   [](std::size_t) {});
  kk::parallel_for("prof::timed_dev", kk::RangePolicy<kk::Device>(0, 50),
                   [](std::size_t) {});
  const auto stats = timer->stats();
  const auto it = stats.find("prof::timed");
  ASSERT_NE(it, stats.end());
  const auto& s = it->second;
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.device_count, 0u);
  EXPECT_EQ(s.total_items, 500u);
  const auto dev = stats.find("prof::timed_dev");
  ASSERT_NE(dev, stats.end());
  EXPECT_EQ(dev->second.count, 2u);
  EXPECT_EQ(dev->second.device_count, 2u);
  EXPECT_EQ(dev->second.total_items, 150u);
  EXPECT_GT(s.total_s, 0.0);
  EXPECT_LE(s.min_s, s.mean_s());
  EXPECT_LE(s.mean_s(), s.max_s);
  EXPECT_GT(s.items_per_s(), 0.0);
  EXPECT_NE(timer->text_report().find("prof::timed"), std::string::npos);

  // The JSON fragment is parseable and carries the same count.
  const json::Value v = json::parse(timer->json_fragment());
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v["prof::timed"]["count"].number, 5.0);
  EXPECT_GT(v["prof::timed"]["mean_s"].number, 0.0);
  EXPECT_DOUBLE_EQ(v["prof::timed_dev"]["device_count"].number, 2.0);
}

TEST(MemoryTrackerTool, HighWaterMarkAcrossCreateDestroyRealloc) {
  Registered<tools::MemorySpaceTracker> mem;
  constexpr std::uint64_t kA = 1000 * sizeof(double);
  constexpr std::uint64_t kB = 3000 * sizeof(double);
  {
    kk::View<double, 1> a("prof::a", 1000);  // LayoutRight -> "Host"
    auto s = mem->stats().at("Host");
    EXPECT_EQ(s.live_bytes, kA);
    EXPECT_EQ(s.live_allocs, 1u);
    EXPECT_EQ(s.high_water_bytes, kA);
    {
      kk::View<double, 1> b("prof::b", 3000);
      s = mem->stats().at("Host");
      EXPECT_EQ(s.live_bytes, kA + kB);
      EXPECT_EQ(s.high_water_bytes, kA + kB);
    }
    s = mem->stats().at("Host");
    EXPECT_EQ(s.live_bytes, kA);
    EXPECT_EQ(s.high_water_bytes, kA + kB) << "HWM survives deallocation";

    // Device-layout views land in their own space bucket.
    kk::View<double, 1, kk::LayoutLeft> d("prof::dev", 500);
    EXPECT_EQ(mem->stats().at("Device").live_bytes, 500 * sizeof(double));
  }
  const auto s = mem->stats().at("Host");
  EXPECT_EQ(s.live_bytes, 0u);
  EXPECT_EQ(s.live_allocs, 0u);
  EXPECT_EQ(s.alloc_count, 2u);
  EXPECT_EQ(s.dealloc_count, 2u);
  EXPECT_EQ(s.high_water_bytes, kA + kB);
  EXPECT_TRUE(mem->live_allocations().empty());

  const json::Value v = json::parse(mem->json_fragment());
  EXPECT_DOUBLE_EQ(v["Host"]["high_water_bytes"].number, double(kA + kB));
}

TEST(ChromeTraceTool, MeltTraceIsWellFormedAndComplete) {
  const fs::path path = fs::temp_directory_path() / "mlk_test_melt.trace.json";
  fs::remove(path);
  {
    auto sim = testing::make_lj_system(3, 0.8442, 0.05, "lj/cut/kk");
    Input in(*sim);
    in.line("fix 1 all nve");
    in.line("trace " + path.string());
    EXPECT_THROW(in.line("trace other.json"), Error) << "double trace rejected";
    in.line("run 3");
    in.line("trace stop");
  }
  ASSERT_TRUE(fs::exists(path));
  const json::Value doc = json::parse(slurp(path));  // throws if malformed
  const json::Value& events = doc["traceEvents"];
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.arr.empty());

  int kernels = 0, regions = 0, deep_copies = 0;
  bool saw_verlet_force = false;
  for (const auto& e : events.arr) {
    const std::string& cat = e["cat"].str;
    if (cat.rfind("kernel", 0) == 0) ++kernels;
    if (cat == "region") {
      ++regions;
      if (e["name"].str == "Verlet::force") saw_verlet_force = true;
    }
    if (cat == "deep_copy") ++deep_copies;
  }
  EXPECT_GT(kernels, 0) << "trace must contain kernel spans";
  EXPECT_GT(regions, 0) << "trace must contain Verlet phase regions";
  EXPECT_TRUE(saw_verlet_force);
  EXPECT_GE(deep_copies, 1) << "trace must contain at least one deep copy";

  // One section clock: a section region never opens inside another on the
  // same thread, and the fix hooks run under Verlet::modify.
  std::map<double, int> open_sections;  // tid -> open section regions
  bool saw_modify = false;
  for (const auto& e : events.arr) {
    const std::string& name = e["name"].str;
    if (e["cat"].str != "region" ||
        std::find(kSectionRegions.begin(), kSectionRegions.end(), name) ==
            kSectionRegions.end())
      continue;
    int& open = open_sections[e["tid"].number];
    if (e["ph"].str == "B") {
      EXPECT_EQ(open, 0) << name << " opened inside another section";
      ++open;
    } else {
      --open;
    }
    saw_modify = saw_modify || name == "Verlet::modify";
  }
  EXPECT_TRUE(saw_modify);
  fs::remove(path);
}

TEST(ProfileCommand, RoundTripsThroughDump) {
  const fs::path path = fs::temp_directory_path() / "mlk_test_profile.json";
  fs::remove(path);
  {
    auto sim = testing::make_lj_system();
    Input in(*sim);
    in.line("fix 1 all nve");
    in.line("profile on");
    in.line("profile on");  // idempotent
    in.line("run 2");
    in.line("profile dump " + path.string());
    in.line("profile off");
    EXPECT_THROW(in.line("profile dump " + path.string()), Error)
        << "dump after off must fail";
  }
  ASSERT_TRUE(fs::exists(path));
  const json::Value doc = json::parse(slurp(path));
  ASSERT_TRUE(doc["kernels"].is_object());
  ASSERT_FALSE(doc["kernels"].obj.empty());
  for (const auto& [name, s] : doc["kernels"].obj) {
    EXPECT_TRUE(s["count"].is_number()) << name;
    EXPECT_TRUE(s["min_s"].is_number()) << name;
    EXPECT_TRUE(s["max_s"].is_number()) << name;
    EXPECT_TRUE(s["mean_s"].is_number()) << name;
  }
  ASSERT_TRUE(doc["memory"].is_object());
  EXPECT_TRUE(doc["memory"]["Host"]["high_water_bytes"].is_number());
  fs::remove(path);
}

TEST(ProfileCommand, PerRankDumpHoldsOnlyThatRanksKernels) {
  // Each rank's timer sees both ranks' launches; its dump keeps its own.
  init_all();
  const fs::path path =
      fs::temp_directory_path() / "mlk_test_profile_ranks.json";
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.thermo.print = false;
    Input in(sim);
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    in.line("create_atoms 4 4 4 jitter 0.05 78123");
    in.line("mass 1 1.0");
    in.line("velocity all create 1.44 87287");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    in.line("fix 1 all nve");
    in.line("profile on");
    in.line("run 10");
    comm.barrier();  // both ranks' launches are in every timer
    in.line("profile dump " + path.string());
    in.line("profile off");
  });
  for (int r = 0; r < 2; ++r) {
    const fs::path rank_path = path.string() + ".rank" + std::to_string(r);
    ASSERT_TRUE(fs::exists(rank_path)) << rank_path;
    const json::Value doc = json::parse(slurp(rank_path));
    const json::Value& nve = doc["kernels"]["FixNVEKokkos::initial_integrate"];
    EXPECT_DOUBLE_EQ(nve["count"].number, 10.0) << "rank " << r;
    EXPECT_TRUE(doc["memory"].is_object()) << "rank " << r;
    fs::remove(rank_path);
  }
}

}  // namespace
}  // namespace mlk
