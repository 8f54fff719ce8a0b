#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "kokkos/team.hpp"

namespace {

TEST(Team, LeagueCoversEveryTeamOnce) {
  const std::size_t league = 257;
  std::vector<std::atomic<int>> hits(league);
  kk::parallel_for("team::cover", kk::TeamPolicy<kk::Device>(league, 64, 8),
                   [&](const kk::TeamMember& m) {
                     hits[m.league_rank()].fetch_add(1);
                     EXPECT_EQ(m.league_size(), league);
                     EXPECT_EQ(m.team_size(), 64);
                     EXPECT_EQ(m.vector_length(), 8);
                   });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, NestedThreadRangeSerialWithinTeam) {
  std::atomic<long> total{0};
  kk::parallel_for("team::nested", kk::TeamPolicy<kk::Device>(10, 32),
                   [&](const kk::TeamMember& m) {
                     long local = 0;
                     kk::parallel_reduce(
                         kk::TeamThreadRange(m, 100),
                         [&](std::size_t i, long& s) { s += long(i); }, local);
                     total.fetch_add(local);
                   });
  EXPECT_EQ(total.load(), 10L * (99L * 100L / 2L));
}

TEST(Team, VectorRangeWithBounds) {
  long sum = 0;
  kk::parallel_for("team::vec", kk::TeamPolicy<kk::Host>(1, 1, 16),
                   [&](const kk::TeamMember& m) {
                     kk::parallel_for(kk::ThreadVectorRange(m, 5, 10),
                                      [&](std::size_t i) { sum += long(i); });
                   });
  EXPECT_EQ(sum, 5 + 6 + 7 + 8 + 9);
}

TEST(Team, ScratchIsUsablePerTeam) {
  const std::size_t league = 50;
  std::vector<double> results(league, 0.0);
  auto policy =
      kk::TeamPolicy<kk::Device>(league, 32).set_scratch_size(64 * sizeof(double));
  kk::parallel_for("team::scratch", policy, [&](const kk::TeamMember& m) {
    double* s = m.team_scratch<double>(64);
    ASSERT_NE(s, nullptr);
    for (int k = 0; k < 64; ++k) s[k] = double(m.league_rank());
    double acc = 0.0;
    for (int k = 0; k < 64; ++k) acc += s[k];
    results[m.league_rank()] = acc;
  });
  for (std::size_t t = 0; t < league; ++t)
    EXPECT_DOUBLE_EQ(results[t], 64.0 * double(t));
}

TEST(Team, ScratchOverSubscriptionReturnsNull) {
  auto policy = kk::TeamPolicy<kk::Host>(1, 1).set_scratch_size(16);
  kk::parallel_for("team::scratch_over", policy, [&](const kk::TeamMember& m) {
    double* a = m.team_scratch<double>(2);  // 16 bytes: fits exactly
    EXPECT_NE(a, nullptr);
    double* b = m.team_scratch<double>(1);  // over budget
    EXPECT_EQ(b, nullptr);
  });
}

template <class Space>
void expect_scratch_packs_aligned() {
  using pd = kk::simd<double, kk::native_simd_width>;
  constexpr std::size_t kPacks = 5;
  auto policy = kk::TeamPolicy<Space>(8, 1).set_scratch_size(
      sizeof(double) + alignof(pd) + kPacks * sizeof(pd));
  std::atomic<int> misaligned{0};
  kk::parallel_for("team::scratch_align", policy, [&](const kk::TeamMember& m) {
    double* d = m.team_scratch<double>(1);  // pushes the offset off a line
    pd* packs = m.team_scratch<pd>(kPacks);
    ASSERT_NE(d, nullptr);
    ASSERT_NE(packs, nullptr);
    if (reinterpret_cast<std::uintptr_t>(packs) % alignof(pd) != 0)
      misaligned.fetch_add(1);
    for (std::size_t k = 0; k < kPacks; ++k) packs[k] = pd(double(k));
    EXPECT_EQ(packs[kPacks - 1][0], double(kPacks - 1));
  });
  EXPECT_EQ(misaligned.load(), 0);
}

TEST(Team, ScratchPacksAreAlignedInBothSpaces) {
  // Pack arrays in team scratch need addresses aligned to alignof(pack): the
  // arena itself starts on a cache line, and team_scratch aligns offsets.
  expect_scratch_packs_aligned<kk::Host>();
  expect_scratch_packs_aligned<kk::Device>();
}

TEST(Team, LeagueReduction) {
  double total = 0.0;
  kk::parallel_reduce("team::reduce", kk::TeamPolicy<kk::Device>(100, 32),
                      [&](const kk::TeamMember& m, double& sum) {
                        sum += double(m.league_rank());
                      },
                      total);
  EXPECT_DOUBLE_EQ(total, 99.0 * 100.0 / 2.0);
}

TEST(Team, TeamScanExclusivePrefix) {
  std::vector<int> prefix(16, -1);
  kk::parallel_for("team::scan", kk::TeamPolicy<kk::Host>(1, 1),
                   [&](const kk::TeamMember& m) {
                     int total = 0;
                     kk::parallel_scan(
                         kk::TeamThreadRange(m, 16),
                         [&](std::size_t i, int& update, bool final) {
                           if (final) prefix[i] = update;
                           update += int(i) + 1;
                         },
                         total);
                     EXPECT_EQ(total, 16 * 17 / 2);
                   });
  int expect = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(prefix[i], expect);
    expect += int(i) + 1;
  }
}

TEST(Team, SingleExecutesOnce) {
  int count = 0;
  kk::parallel_for("team::single", kk::TeamPolicy<kk::Host>(3, 8),
                   [&](const kk::TeamMember& m) {
                     kk::single(m, [&] { ++count; });
                   });
  EXPECT_EQ(count, 3);
}

}  // namespace
