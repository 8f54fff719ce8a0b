#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/random.hpp"
#include "util/string_utils.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace mlk {
namespace {

TEST(Tokenize, SplitsOnWhitespace) {
  const auto t = tokenize("  pair_style   lj/cut  2.5 ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "pair_style");
  EXPECT_EQ(t[1], "lj/cut");
  EXPECT_EQ(t[2], "2.5");
}

TEST(Tokenize, CommentsStripEverythingAfterHash) {
  const auto t = tokenize("run 100 # production segment");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1], "100");
}

TEST(Tokenize, EmptyAndCommentOnlyLines) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("   ").empty());
  EXPECT_TRUE(tokenize("# all comment").empty());
}

TEST(Parse, ToDouble) {
  EXPECT_DOUBLE_EQ(to_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(to_double("-1e-3"), -1e-3);
  EXPECT_THROW(to_double("2.5x"), Error);
  EXPECT_THROW(to_double(""), Error);
}

TEST(Parse, ToInt) {
  EXPECT_EQ(to_int("42"), 42);
  EXPECT_EQ(to_int("-7"), -7);
  EXPECT_THROW(to_int("4.2"), Error);
}

TEST(Parse, ToBigintHandles64Bit) {
  EXPECT_EQ(to_bigint("3000000000"), 3000000000LL);  // > 2^31
}

TEST(Parse, ToBool) {
  EXPECT_TRUE(to_bool("on"));
  EXPECT_TRUE(to_bool("yes"));
  EXPECT_FALSE(to_bool("off"));
  EXPECT_FALSE(to_bool("no"));
  EXPECT_THROW(to_bool("maybe"), Error);
}

TEST(Suffix, StripStyleSuffix) {
  std::string sfx;
  EXPECT_EQ(strip_style_suffix("lj/cut/kk", &sfx), "lj/cut");
  EXPECT_EQ(sfx, "/kk");
  EXPECT_EQ(strip_style_suffix("lj/cut/kk/host", &sfx), "lj/cut");
  EXPECT_EQ(sfx, "/kk/host");
  EXPECT_EQ(strip_style_suffix("lj/cut/kk/device", &sfx), "lj/cut");
  EXPECT_EQ(sfx, "/kk/device");
  EXPECT_EQ(strip_style_suffix("lj/cut", &sfx), "lj/cut");
  EXPECT_TRUE(sfx.empty());
}

TEST(Random, DeterministicForSameSeed) {
  RanPark a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Random, UniformMomentsReasonable) {
  RanPark rng(991);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sumsq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sumsq / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Random, GaussianMoments) {
  RanPark rng(77);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Random, IRandomBounds) {
  RanPark rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.irandom(3, 9);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
  }
}

TEST(Random, RejectsBadSeed) { EXPECT_THROW(RanPark(0), Error); }

TEST(TimerSet, Accumulates) {
  TimerSet ts;
  ts.add(Section::Pair, 1.5);
  ts.add(Section::Pair, 0.5);
  ts.add(Section::Neigh, 0.25);
  EXPECT_DOUBLE_EQ(ts.total(Section::Pair), 2.0);
  EXPECT_DOUBLE_EQ(ts.total(Section::Neigh), 0.25);
  EXPECT_DOUBLE_EQ(ts.total(Section::Comm), 0.0);
  // By-name read (the perfbench harness's view of the same array).
  EXPECT_DOUBLE_EQ(ts.total("Pair"), 2.0);
  EXPECT_DOUBLE_EQ(ts.all().at("Neigh"), 0.25);
}

TEST(Types, Int4Equality) {
  int4 a{1, 2, 3, 4}, b{1, 2, 3, 4}, c{1, 2, 3, 5};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace mlk
