#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "kokkos/core.hpp"

namespace {

template <class Space>
struct SpaceName;
template <>
struct SpaceName<kk::Host> {
  static constexpr const char* value = "Host";
};
template <>
struct SpaceName<kk::Device> {
  static constexpr const char* value = "Device";
};

template <class Space>
class ParallelPatterns : public ::testing::Test {};

using Spaces = ::testing::Types<kk::Host, kk::Device>;
TYPED_TEST_SUITE(ParallelPatterns, Spaces);

TYPED_TEST(ParallelPatterns, ForCoversEveryIndexOnce) {
  using Space = TypeParam;
  const std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  kk::parallel_for("t::for", kk::RangePolicy<Space>(0, n),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TYPED_TEST(ParallelPatterns, ForHonorsBeginOffset) {
  using Space = TypeParam;
  std::atomic<long> sum{0};
  kk::parallel_for("t::for_offset", kk::RangePolicy<Space>(100, 200),
                   [&](std::size_t i) { sum.fetch_add(long(i)); });
  EXPECT_EQ(sum.load(), (100L + 199L) * 100L / 2L);
}

TYPED_TEST(ParallelPatterns, ReduceSum) {
  using Space = TypeParam;
  const std::size_t n = 100000;
  double sum = -1.0;
  kk::parallel_reduce("t::reduce", kk::RangePolicy<Space>(0, n),
                      [](std::size_t i, double& s) { s += double(i); }, sum);
  EXPECT_DOUBLE_EQ(sum, double(n) * double(n - 1) / 2.0);
}

TYPED_TEST(ParallelPatterns, ReduceMaxMin) {
  using Space = TypeParam;
  const std::size_t n = 5001;
  int maxv = 0, minv = 0;
  kk::parallel_reduce_impl(
      "t::max", kk::RangePolicy<Space>(0, n),
      [](std::size_t i, int& m) {
        const int v = int((i * 37) % 4999);
        if (v > m) m = v;
      },
      kk::Max<int>(maxv));
  kk::parallel_reduce_impl(
      "t::min", kk::RangePolicy<Space>(0, n),
      [](std::size_t i, int& m) {
        const int v = int((i * 37) % 4999) - 10;
        if (v < m) m = v;
      },
      kk::Min<int>(minv));
  EXPECT_EQ(maxv, 4998);
  EXPECT_EQ(minv, -10);
}

TYPED_TEST(ParallelPatterns, ExclusiveScanMatchesSerialPrefix) {
  using Space = TypeParam;
  const std::size_t n = 12345;
  std::vector<int> vals(n), prefix(n, -1);
  for (std::size_t i = 0; i < n; ++i) vals[i] = int(i % 7) + 1;
  long total = 0;
  kk::parallel_scan("t::scan", kk::RangePolicy<Space>(0, n),
                    [&](std::size_t i, long& update, bool final) {
                      if (final) prefix[i] = int(update);
                      update += vals[i];
                    },
                    total);
  long expect = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(prefix[i], expect) << "at " << i;
    expect += vals[i];
  }
  EXPECT_EQ(total, expect);
}

TYPED_TEST(ParallelPatterns, ScanEmptyRange) {
  using Space = TypeParam;
  long total = 99;
  kk::parallel_scan("t::scan_empty", kk::RangePolicy<Space>(0, 0),
                    [&](std::size_t, long& u, bool) { u += 1; }, total);
  EXPECT_EQ(total, 0);
}

TYPED_TEST(ParallelPatterns, NestedDispatchRunsInline) {
  using Space = TypeParam;
  std::atomic<int> count{0};
  kk::parallel_for("t::outer", kk::RangePolicy<Space>(0, 4),
                   [&](std::size_t) {
                     kk::parallel_for("t::inner", kk::RangePolicy<Space>(0, 8),
                                      [&](std::size_t) { count.fetch_add(1); });
                   });
  EXPECT_EQ(count.load(), 32);
}

TEST(Atomics, ConcurrentAddsAreExact) {
  double acc = 0.0;
  const std::size_t n = 200000;
  kk::parallel_for("t::atomadd", kk::RangePolicy<kk::Device>(0, n),
                   [&](std::size_t) { kk::atomic_add(&acc, 1.0); });
  EXPECT_DOUBLE_EQ(acc, double(n));
}

TEST(Atomics, AtomicMax) {
  int m = 0;
  kk::parallel_for("t::atommax", kk::RangePolicy<kk::Device>(0, 10000),
                   [&](std::size_t i) { kk::atomic_max(&m, int(i % 997)); });
  EXPECT_EQ(m, 996);
}

TEST(Profiling, RecordsLaunchesAndItems) {
  kk::profiling::reset();
  kk::parallel_for("prof::k1", kk::RangePolicy<kk::Device>(0, 100),
                   [](std::size_t) {});
  kk::parallel_for("prof::k1", kk::RangePolicy<kk::Device>(0, 50),
                   [](std::size_t) {});
  kk::parallel_for("prof::k2", kk::RangePolicy<kk::Host>(0, 10),
                   [](std::size_t) {});
  // Per-kernel counts and items: KernelTimerTool.AccumulatesPerKernelStats.
  EXPECT_EQ(kk::profiling::total_launches(), 3u);
  EXPECT_EQ(kk::profiling::total_device_launches(), 2u);
  kk::profiling::reset();
  EXPECT_EQ(kk::profiling::total_launches(), 0u);
}

TEST(Profiling, DisableSuppressesRecording) {
  kk::profiling::reset();
  const bool prev = kk::profiling::set_enabled(false);
  kk::parallel_for("prof::off", kk::RangePolicy<kk::Device>(0, 10),
                   [](std::size_t) {});
  EXPECT_EQ(kk::profiling::total_launches(), 0u);
  kk::profiling::set_enabled(prev);
}

}  // namespace
