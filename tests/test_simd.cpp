// kk::simd pack-layer unit tests plus scalar-vs-SIMD equivalence per the
// policy table in docs/VECTORIZATION.md: bitwise where the port preserves
// the scalar operation order, tolerance where lane reductions reassociate.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kokkos/simd.hpp"
#include "snap/sna.hpp"
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

template <int W>
void expect_negation_flips_sign_bit() {
  using pw = kk::simd<double, W>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double in[4] = {0.0, -0.0, nan, -nan};
  for (double v : in) {
    const pw neg = -pw(v);
    for (int l = 0; l < W; ++l)
      EXPECT_NE(std::signbit(neg[l]), std::signbit(v))
          << "W " << W << " lane " << l << " input " << v;
  }
}

TEST(SimdPack, NegationFlipsSignBitLikeScalar) {
  // Scalar -x flips the sign bit, so -(+0.0) is -0.0 and a NaN's sign
  // flips; each lane must do the same, or lane results that negate a zero
  // (the SNAP U mirror) stop matching the scalar bit for bit.
  expect_negation_flips_sign_bit<1>();
  expect_negation_flips_sign_bit<kk::native_simd_width>();
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

// --- SNAP lane templates vs their double instantiation ----------------------

constexpr int NW = kk::native_simd_width;
using pn = kk::simd<double, NW>;

/// Lane l of a pack array as a plain array, for byte comparison.
std::vector<double> lane_of(const std::vector<pn>& v, int l) {
  std::vector<double> out(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) out[k] = v[k][l];
  return out;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SimdSnap, ZEntryLanesBitwiseMatchScalarPerLane) {
  snap::SnaIndexes idx;
  idx.build(6);
  // Synthetic U tables for NW "atoms": smooth deterministic values.
  const int n = idx.idxu_max;
  std::vector<double> ur(std::size_t(NW * n)), ui(std::size_t(NW * n));
  for (int a = 0; a < NW; ++a)
    for (int k = 0; k < n; ++k) {
      ur[std::size_t(a * n + k)] = std::sin(0.1 * k + a) / (1.0 + 0.01 * k);
      ui[std::size_t(a * n + k)] = std::cos(0.07 * k - a) * 0.5;
    }
  const std::size_t nu = std::size_t(n);
  std::vector<pn> ur_p(nu), ui_p(nu);
  for (int k = 0; k < n; ++k) {
    ur_p[std::size_t(k)] =
        pn::gather([&](int l) { return ur[std::size_t(l * n + k)]; });
    ui_p[std::size_t(k)] =
        pn::gather([&](int l) { return ui[std::size_t(l * n + k)]; });
  }
  for (int jjz = 0; jjz < idx.idxz_max; jjz += 7) {
    const auto& e = idx.idxz[std::size_t(jjz)];
    pn zr_l, zi_l;
    snap::compute_z_entry(idx, e, ur_p.data(), ui_p.data(), &zr_l, &zi_l);
    for (int l = 0; l < NW; ++l) {
      double zr_s, zi_s;
      snap::compute_z_entry(idx, e, ur.data() + l * n, ui.data() + l * n,
                            &zr_s, &zi_s);
      // Lanes repeat the scalar op sequence exactly: bitwise policy.
      EXPECT_EQ(zr_l[l], zr_s) << "jjz " << jjz << " lane " << l;
      EXPECT_EQ(zi_l[l], zi_s) << "jjz " << jjz << " lane " << l;
    }
  }
}

/// One neighbor as the SNAP kernels stage it: displacement, distance and
/// its Cayley-Klein z0, dz0/dr.
struct Neighbor {
  double x, y, z, r, z0, dz0dr;
};

/// Neighbor geometries for the lane tests: generic directions, one just
/// inside rcut, two on the z axis (where b = 0, so the U mirror negates
/// zeros) and one on the x axis. There are more than NW of them, so the last
/// chunk pads its lanes with the last neighbor, as the kernels do.
std::vector<Neighbor> lane_geometries(const snap::SnaParams& p) {
  std::vector<std::array<double, 3>> d = {
      {1.2, -0.7, 2.1}, {0.0, 0.0, 2.5},   {0.31, 0.52, -0.79},
      {2.7, 0.0, 0.0},  {0.0, 0.0, -1.9},  {-1.4, 2.2, 0.6}};
  const double nr = 0.999 * p.rcut / std::sqrt(0.09 + 0.25 + 0.6561);
  d.push_back({0.3 * nr, -0.5 * nr, 0.81 * nr});  // just inside rcut
  while (d.size() % std::size_t(NW) == 0) d.push_back({0.9, 0.4, -1.1});
  std::vector<Neighbor> out;
  for (const auto& v : d) {
    Neighbor q{v[0], v[1], v[2], 0.0, 0.0, 0.0};
    q.r = std::sqrt(q.x * q.x + q.y * q.y + q.z * q.z);
    snap::cayley_klein(p.rfac0, p.rmin0, p.rcut, q.r, &q.z0, &q.dz0dr);
    out.push_back(q);
  }
  return out;
}

/// Calls f(chunk lanes as packs, lane -> neighbor) for each chunk of NW
/// neighbors, padding the last chunk with the last neighbor.
template <class F>
void for_each_chunk(const std::vector<Neighbor>& g, const F& f) {
  for (std::size_t c = 0; c < g.size(); c += std::size_t(NW)) {
    const auto lane = [&](int l) -> const Neighbor& {
      return g[std::min(c + std::size_t(l), g.size() - 1)];
    };
    const auto pack = [&](double Neighbor::*m) {
      return pn::gather([&](int l) { return lane(l).*m; });
    };
    f(pack, lane);
  }
}

TEST(SimdSnap, ULanesBitwiseMatchScalarPerLane) {
  snap::SnaParams p;
  p.twojmax = 8;
  p.rcut = 4.7;
  snap::SnaIndexes idx;
  idx.build(p.twojmax);
  const std::size_t n = std::size_t(idx.idxu_max);
  std::vector<pn> ur(n), ui(n);
  std::vector<double> sr(n), si(n);
  for_each_chunk(lane_geometries(p), [&](const auto& pack, const auto& lane) {
    snap::compute_u_lanes(idx, pack(&Neighbor::x), pack(&Neighbor::y),
                          pack(&Neighbor::z), pack(&Neighbor::z0),
                          pack(&Neighbor::r), ur.data(), ui.data());
    for (int l = 0; l < NW; ++l) {
      const Neighbor& q = lane(l);
      snap::compute_u_lanes(idx, q.x, q.y, q.z, q.z0, q.r, sr.data(),
                            si.data());
      EXPECT_TRUE(same_bytes(lane_of(ur, l), sr)) << "ur lane " << l;
      EXPECT_TRUE(same_bytes(lane_of(ui, l), si)) << "ui lane " << l;
    }
  });
}

TEST(SimdSnap, DULanesAndForceContractionBitwiseMatchScalarPerLane) {
  snap::SnaParams p;
  p.twojmax = 8;
  p.rcut = 4.7;
  snap::SnaIndexes idx;
  idx.build(p.twojmax);
  const std::size_t n = std::size_t(idx.idxu_max);
  // A synthetic Y row, shared by every lane as in ComputeFusedDeidrj.
  std::vector<double> yr(n), yi(n);
  for (std::size_t k = 0; k < n; ++k) {
    yr[k] = std::cos(0.13 * double(k)) * 0.7;
    yi[k] = std::sin(0.05 * double(k) + 1.0);
  }
  const auto get_yr = [&](int k) { return yr[std::size_t(k)]; };
  const auto get_yi = [&](int k) { return yi[std::size_t(k)]; };
  // Switching-function stand-ins: smooth in r, different on every lane.
  const auto sw = [&](double r) { return 1.0 - r / p.rcut; };
  const auto dsw = [&](double r) { return -0.5 * r / p.rcut; };

  std::vector<std::vector<pn>> pk(8, std::vector<pn>(n));
  std::vector<std::vector<double>> sc(8, std::vector<double>(n));
  pn* dur_p[3] = {pk[2].data(), pk[3].data(), pk[4].data()};
  pn* dui_p[3] = {pk[5].data(), pk[6].data(), pk[7].data()};
  double* dur_s[3] = {sc[2].data(), sc[3].data(), sc[4].data()};
  double* dui_s[3] = {sc[5].data(), sc[6].data(), sc[7].data()};
  for_each_chunk(lane_geometries(p), [&](const auto& pack, const auto& lane) {
    const pn x = pack(&Neighbor::x), y = pack(&Neighbor::y),
             z = pack(&Neighbor::z), r = pack(&Neighbor::r);
    snap::compute_du_lanes(idx, x, y, z, pack(&Neighbor::z0), r,
                           pack(&Neighbor::dz0dr), pk[0].data(), pk[1].data(),
                           dur_p, dui_p);
    const pn u3[3] = {x / r, y / r, z / r};
    pn fij[3];
    snap::compute_dedr(idx, pk[0].data(), pk[1].data(), dur_p, dui_p,
                       pn::gather([&](int l) { return sw(r[l]); }),
                       pn::gather([&](int l) { return dsw(r[l]); }), u3,
                       get_yr, get_yi, fij);
    for (int l = 0; l < NW; ++l) {
      const Neighbor& q = lane(l);
      snap::compute_du_lanes(idx, q.x, q.y, q.z, q.z0, q.r, q.dz0dr,
                             sc[0].data(), sc[1].data(), dur_s, dui_s);
      for (std::size_t b = 0; b < 8; ++b)
        EXPECT_TRUE(same_bytes(lane_of(pk[b], l), sc[b]))
            << "buffer " << b << " lane " << l;
      const double u3s[3] = {q.x / q.r, q.y / q.r, q.z / q.r};
      double fs[3];
      snap::compute_dedr(idx, sc[0].data(), sc[1].data(), dur_s, dui_s,
                         sw(q.r), dsw(q.r), u3s, get_yr, get_yi, fs);
      for (int k = 0; k < 3; ++k) {
        const double fl = fij[k][l];
        EXPECT_EQ(std::memcmp(&fl, &fs[k], sizeof(double)), 0)
            << "fij[" << k << "] lane " << l << ": " << fl << " vs " << fs[k];
      }
    }
  });
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

}  // namespace
}  // namespace mlk
