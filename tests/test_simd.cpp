// kk::simd pack-layer unit tests plus scalar-vs-SIMD equivalence per the
// policy table in docs/VECTORIZATION.md: bitwise where the port preserves
// the scalar operation order, tolerance where lane reductions reassociate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "kokkos/simd.hpp"
#include "snap/sna_recursion.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

using pd = kk::simd<double, 4>;
using pm = kk::simd_mask<4>;

using testing::SimdGuard;

TEST(SimdPack, BroadcastLoadStoreRoundTrip) {
  const double src[4] = {1.5, -2.0, 3.25, 0.0};
  double dst[4] = {0, 0, 0, 0};
  pd::load(src).store(dst);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(src[l], dst[l]);

  const pd b(7.5);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(b[l], 7.5);
}

TEST(SimdPack, ArithmeticIsLanewiseExact) {
  const double av[4] = {1.0, -2.5, 1e-3, 4.0};
  const double bv[4] = {3.0, 0.5, -7.0, 0.125};
  const pd a = pd::load(av), b = pd::load(bv);
  const pd sum = a + b, diff = a - b, prod = a * b, quot = a / b;
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(sum[l], av[l] + bv[l]);
    EXPECT_EQ(diff[l], av[l] - bv[l]);
    EXPECT_EQ(prod[l], av[l] * bv[l]);
    EXPECT_EQ(quot[l], av[l] / bv[l]);
    EXPECT_EQ((-a)[l], -av[l]);
    EXPECT_EQ((a * 2.0)[l], av[l] * 2.0);
    EXPECT_EQ((1.0 / b)[l], 1.0 / bv[l]);
  }
  pd c = a;
  c += b;
  c *= a;
  for (int l = 0; l < 4; ++l) EXPECT_EQ(c[l], (av[l] + bv[l]) * av[l]);
}

TEST(SimdPack, ComparisonsAndSelect) {
  const pd a = pd::iota(0.0);  // 0 1 2 3
  const pm lt = a < pd(2.0);
  EXPECT_TRUE(lt[0]);
  EXPECT_TRUE(lt[1]);
  EXPECT_FALSE(lt[2]);
  EXPECT_FALSE(lt[3]);
  EXPECT_EQ(lt.count(), 2);
  EXPECT_TRUE(lt.any());
  EXPECT_FALSE(lt.all());
  EXPECT_FALSE(lt.none());

  const pd blended = kk::select(lt, pd(1.0), pd(-1.0));
  for (int l = 0; l < 4; ++l) EXPECT_EQ(blended[l], l < 2 ? 1.0 : -1.0);
}

TEST(SimdPack, GatherMatchesScalarReference) {
  const double table[8] = {10, 11, 12, 13, 14, 15, 16, 17};
  const int map[4] = {6, 0, 3, 5};
  const pd g = pd::gather([&](int l) { return table[map[l]]; });
  for (int l = 0; l < 4; ++l) EXPECT_EQ(g[l], table[map[l]]);
}

TEST(SimdPack, MaskedGatherNeverTouchesInactiveLanes) {
  int calls = 0;
  const pm m = pm::first(2);
  const pd g = pd::gather_masked(m, [&](int l) {
    ++calls;
    return double(l + 1);
  }, -9.0);
  EXPECT_EQ(calls, 2);  // inactive sources must not be dereferenced
  EXPECT_EQ(g[0], 1.0);
  EXPECT_EQ(g[1], 2.0);
  EXPECT_EQ(g[2], -9.0);
  EXPECT_EQ(g[3], -9.0);
}

TEST(SimdPack, ReduceSumIsLaneOrdered) {
  // Values whose sum depends on association order: only the documented
  // lane-0-first order yields 1.0.
  pd a;
  a.set_lane(0, 1e16);
  a.set_lane(1, 1.0);
  a.set_lane(2, -1e16);
  a.set_lane(3, 1.0);
  EXPECT_EQ(kk::reduce_sum(a), ((1e16 + 1.0) + -1e16) + 1.0);
  EXPECT_EQ(kk::reduce_max(pd::iota(-3.0)), 0.0);
}

TEST(SimdPack, MaskedReductionSkipsInactive) {
  pd a = pd::iota(1.0);  // 1 2 3 4
  EXPECT_EQ(kk::reduce_sum_masked(pm::first(3), a), 6.0);
  EXPECT_EQ(kk::reduce_sum_masked(pm(false), a), 0.0);  // all-false mask
  // Signed zero: a skipped scalar loop never adds +0.0, so a single active
  // -0.0 lane must stay -0.0 (seeded, not accumulated onto +0.0).
  pd z;
  z.set_lane(0, -0.0);
  EXPECT_TRUE(std::signbit(kk::reduce_sum_masked(pm::first(1), z)));
}

TEST(SimdPack, MathFunctionsAreLanewise) {
  const pd a = pd::iota(1.0);
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(kk::sqrt(a)[l], std::sqrt(double(l + 1)));
    EXPECT_EQ(kk::exp(a)[l], std::exp(double(l + 1)));
  }
  EXPECT_EQ(kk::min(pd(2.0), pd::iota(0.0))[3], 2.0);
  EXPECT_EQ(kk::max(pd(2.0), pd::iota(0.0))[3], 3.0);
}

TEST(SimdMask, FirstAndLogicalOps) {
  EXPECT_TRUE(pm::first(0).none());
  EXPECT_TRUE(pm::first(4).all());
  const pm a = pm::first(3), b = !pm::first(1);
  const pm both = a && b;  // lanes 1, 2
  EXPECT_FALSE(both[0]);
  EXPECT_TRUE(both[1]);
  EXPECT_TRUE(both[2]);
  EXPECT_FALSE(both[3]);
  EXPECT_EQ((a || b).count(), 4);
}

TEST(SimdWhere, MaskedAccumulateLeavesInactiveLanesUntouched) {
  pd acc(1.0);
  kk::where(pm::first(2), acc) += pd(10.0);
  EXPECT_EQ(acc[0], 11.0);
  EXPECT_EQ(acc[1], 11.0);
  EXPECT_EQ(acc[2], 1.0);
  EXPECT_EQ(acc[3], 1.0);

  // All-false mask: a no-op even when the contribution is poisonous.
  pd poisoned(0.0);
  kk::where(pm(false), poisoned) += pd(std::numeric_limits<double>::quiet_NaN());
  for (int l = 0; l < 4; ++l) EXPECT_EQ(poisoned[l], 0.0);
}

TEST(SimdWhere, RemainderLoopMatchesScalarSum) {
  // The canonical remainder pattern: 7 elements in W=4 chunks, masked tail.
  const double v[7] = {0.5, 1.25, -2.0, 3.0, 4.5, -0.75, 2.25};
  double scalar = 0.0;
  for (double e : v) scalar += e * e;

  pd acc;
  const int nfull = 7 & ~3;
  for (int i = 0; i < nfull; i += 4) {
    const pd p = pd::load(v + i);
    acc += p * p;
  }
  const pm tail = pm::first(7 - nfull);
  const pd p = pd::load_masked(v + nfull, tail);
  kk::where(tail, acc) += p * p;
  EXPECT_NEAR(kk::reduce_sum(acc), scalar, 1e-15 * std::abs(scalar));
}

TEST(SimdWidthOne, IsTheScalarReferencePath) {
  using p1 = kk::simd<double, 1>;
  const p1 a(3.0), b(4.0);
  EXPECT_EQ((a * b + a)[0], 3.0 * 4.0 + 3.0);
  EXPECT_EQ(kk::reduce_sum(a), 3.0);
  kk::simd_mask<1> m(true);
  EXPECT_TRUE(m.all());
  EXPECT_EQ(kk::select(m, a, b)[0], 3.0);
}

TEST(SimdStats, LaunchCountersAccumulate) {
  kk::simdstats::reset();
  kk::simdstats::count_launch("TestKernel");
  kk::simdstats::count_launch("TestKernel");
  const auto launches = kk::simdstats::launches();
  ASSERT_EQ(launches.count("TestKernel"), 1u);
  EXPECT_EQ(launches.at("TestKernel"), 2u);
  EXPECT_NE(kk::simdstats::json_fragment().find("\"width\""), std::string::npos);
  kk::simdstats::reset();
  EXPECT_TRUE(kk::simdstats::launches().empty());
}

TEST(SimdInput, ScriptCommandTogglesPackPath) {
  SimdGuard guard;
  init_all();
  Simulation sim;
  Input in(sim);
  in.line("simd on");
  EXPECT_TRUE(kk::simd_enabled());
  in.line("simd off");
  EXPECT_FALSE(kk::simd_enabled());
}

// --- SNAP Z-entry lane evaluation vs the scalar triple product -------------

TEST(SimdSnap, ZEntryLanesBitwiseMatchScalarPerLane) {
  snap::SnaIndexes idx;
  idx.build(6);
  // Synthetic U tables for 4 "atoms": smooth deterministic values.
  const int n = idx.idxu_max;
  std::vector<double> ur(std::size_t(4 * n)), ui(std::size_t(4 * n));
  for (int a = 0; a < 4; ++a)
    for (int k = 0; k < n; ++k) {
      ur[std::size_t(a * n + k)] = std::sin(0.1 * k + a) / (1.0 + 0.01 * k);
      ui[std::size_t(a * n + k)] = std::cos(0.07 * k - a) * 0.5;
    }
  for (int jjz = 0; jjz < idx.idxz_max; jjz += 7) {
    const auto& e = idx.idxz[std::size_t(jjz)];
    pd zr_l, zi_l;
    snap::compute_z_entry_lanes<4>(
        idx, e,
        [&](int k) {
          return pd::gather([&](int l) { return ur[std::size_t(l * n + k)]; });
        },
        [&](int k) {
          return pd::gather([&](int l) { return ui[std::size_t(l * n + k)]; });
        },
        &zr_l, &zi_l);
    for (int l = 0; l < 4; ++l) {
      double zr_s, zi_s;
      snap::compute_z_entry(
          idx, e, [&](int k) { return ur[std::size_t(l * n + k)]; },
          [&](int k) { return ui[std::size_t(l * n + k)]; }, &zr_s, &zi_s);
      // Lanes repeat the scalar op sequence exactly: bitwise policy.
      EXPECT_EQ(zr_l[l], zr_s) << "jjz " << jjz << " lane " << l;
      EXPECT_EQ(zi_l[l], zi_s) << "jjz " << jjz << " lane " << l;
    }
  }
}

// --- Scalar-vs-SIMD trajectory equivalence ---------------------------------

struct MeltState {
  double pe = 0.0;
  std::vector<double> x;
};

MeltState run_melt(bool simd) {
  SimdGuard guard;
  kk::set_simd_enabled(simd);
  auto sim = testing::make_lj_system(4, 0.8442, 0.05, "lj/cut/kk", 1.44);
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("run 40");
  MeltState out;
  out.pe = testing::total_pe(*sim);
  sim->atom.sync<kk::Host>(X_MASK);
  auto x = sim->atom.k_x.h_view;
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    for (int d = 0; d < 3; ++d)
      out.x.push_back(x(std::size_t(i), std::size_t(d)));
  return out;
}

TEST(SimdEquivalence, MeltTrajectoryMatchesScalarWithinTolerance) {
  // LJ rows reduce i-side sums across lanes (tolerance policy): after 40
  // NVE steps the trajectories must agree to well below thermo precision.
  const MeltState scalar = run_melt(false);
  const MeltState simd = run_melt(true);
  ASSERT_EQ(scalar.x.size(), simd.x.size());
  EXPECT_NEAR(simd.pe, scalar.pe, 1e-8 * std::abs(scalar.pe));
  for (std::size_t k = 0; k < scalar.x.size(); ++k)
    EXPECT_NEAR(simd.x[k], scalar.x[k], 1e-8)
        << "coordinate " << k << " diverged";
}

std::vector<double> snap_forces(bool simd) {
  SimdGuard guard;
  kk::set_simd_enabled(simd);
  init_all();
  Simulation sim;
  Input in(sim);
  in.line("units metal");
  in.line("lattice bcc 3.16");
  in.line("create_atoms 3 3 3 jitter 0.04 5511");
  in.line("mass 1 183.84");
  in.line("pair_style snap/kk");
  in.line("pair_coeff * * 4.7 6 7771");
  sim.thermo.print = false;
  testing::total_pe(sim);
  sim.atom.sync<kk::Host>(F_MASK);
  std::vector<double> f;
  for (localint i = 0; i < sim.atom.nlocal; ++i)
    for (int d = 0; d < 3; ++d)
      f.push_back(sim.atom.k_f.h_view(std::size_t(i), std::size_t(d)));
  return f;
}

TEST(SimdEquivalence, SnapForcesMatchScalarWithinTolerance) {
  // Ui accumulation and the Zi/Yi atom-lane path are bitwise; the fused
  // dEi/dRj contraction reduces lane partials (tolerance policy), so the
  // net forces are compared to tight tolerance rather than bitwise.
  const std::vector<double> scalar = snap_forces(false);
  const std::vector<double> simd = snap_forces(true);
  ASSERT_EQ(scalar.size(), simd.size());
  double fmax = 1.0;
  for (double v : scalar) fmax = std::max(fmax, std::abs(v));
  for (std::size_t k = 0; k < scalar.size(); ++k)
    EXPECT_NEAR(simd[k], scalar[k], 1e-10 * fmax) << "component " << k;
}

}  // namespace
}  // namespace mlk
