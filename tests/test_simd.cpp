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
#include "pair/pair_lj_cut_kokkos.hpp"
#include "snap/sna.hpp"
#include "snap/sna_recursion.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

using pd = kk::simd<double, 4>;
using pm = kk::simd_mask<4>;
using testing::on_one_participant;

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
  const double av[4] = {0.0, 1.0, 2.0, 3.0};
  const pd a = pd::load(av);
  const pm lt = a < pd(2.0);
  EXPECT_TRUE(lt[0]);
  EXPECT_TRUE(lt[1]);
  EXPECT_FALSE(lt[2]);
  EXPECT_FALSE(lt[3]);
  EXPECT_TRUE(lt.any());
  EXPECT_FALSE(lt.none());
  EXPECT_TRUE((a < pd(0.0)).none());

  const pd blended = kk::select(lt, pd(1.0), pd(-1.0));
  for (int l = 0; l < 4; ++l) EXPECT_EQ(blended[l], l < 2 ? 1.0 : -1.0);
}

TEST(SimdPack, GatherMatchesScalarReference) {
  const double table[8] = {10, 11, 12, 13, 14, 15, 16, 17};
  const int map[4] = {6, 0, 3, 5};
  const pd g = pd::gather([&](int l) { return table[map[l]]; });
  for (int l = 0; l < 4; ++l) EXPECT_EQ(g[l], table[map[l]]);
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
}

TEST(SimdPack, MathFunctionsAreLanewise) {
  const double av[4] = {1.0, 2.0, 3.0, 4.0};
  const pd r = kk::sqrt(pd::load(av));
  for (int l = 0; l < 4; ++l) EXPECT_EQ(r[l], std::sqrt(av[l]));
}

TEST(SimdMask, FirstAndLogicalOps) {
  EXPECT_TRUE(pm::first(0).none());
  const pm a = pm::first(3), b = !pm::first(1);
  for (int l = 0; l < 4; ++l) {
    EXPECT_TRUE(pm::first(4)[l]);
    EXPECT_EQ(a[l], l < 3);
    EXPECT_EQ(b[l], l >= 1);
    EXPECT_EQ((a && b)[l], l == 1 || l == 2);
    EXPECT_TRUE((a || b)[l]);
  }
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
  // The kernels' remainder pattern: 7 elements in W=4 chunks, the tail
  // masked with first() and its inactive lanes padded with a valid source.
  const double v[7] = {0.5, 1.25, -2.0, 3.0, 4.5, -0.75, 2.25};
  double scalar = 0.0;
  for (double e : v) scalar += e * e;

  pd acc;
  const int nfull = 7 & ~3;
  for (int i = 0; i < nfull; i += 4) {
    const pd p = pd::load(v + i);
    acc += p * p;
  }
  const int rem = 7 - nfull;
  const pm tail = pm::first(rem);
  const pd p = pd::gather([&](int l) { return v[nfull + (l < rem ? l : 0)]; });
  kk::where(tail, acc) += p * p;
  EXPECT_NEAR(kk::reduce_sum(acc), scalar, 1e-15 * std::abs(scalar));
}

TEST(SimdWidthOne, IsTheScalarReferencePath) {
  using p1 = kk::simd<double, 1>;
  const p1 a(3.0), b(4.0);
  EXPECT_EQ((a * b + a)[0], 3.0 * 4.0 + 3.0);
  EXPECT_EQ(kk::reduce_sum(a), 3.0);
  kk::simd_mask<1> m(true);
  EXPECT_TRUE(m[0]);
  EXPECT_EQ(kk::select(m, a, b)[0], 3.0);
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
    pn fij[3];
    snap::compute_dedr(idx, pk[0].data(), pk[1].data(), dur_p, dui_p, x, y, z,
                       r, pn::gather([&](int l) { return sw(r[l]); }),
                       pn::gather([&](int l) { return dsw(r[l]); }),
                       yr.data(), yi.data(), fij);
    for (int l = 0; l < NW; ++l) {
      const Neighbor& q = lane(l);
      snap::compute_du_lanes(idx, q.x, q.y, q.z, q.z0, q.r, q.dz0dr,
                             sc[0].data(), sc[1].data(), dur_s, dui_s);
      for (std::size_t b = 0; b < 8; ++b)
        EXPECT_TRUE(same_bytes(lane_of(pk[b], l), sc[b]))
            << "buffer " << b << " lane " << l;
      double fs[3];
      snap::compute_dedr(idx, sc[0].data(), sc[1].data(), dur_s, dui_s, q.x,
                         q.y, q.z, q.r, sw(q.r), dsw(q.r), yr.data(),
                         yi.data(), fs);
      for (int k = 0; k < 3; ++k) {
        const double fl = fij[k][l];
        EXPECT_EQ(std::memcmp(&fl, &fs[k], sizeof(double)), 0)
            << "fij[" << k << "] lane " << l << ": " << fl << " vs " << fs[k];
      }
    }
  });
}

// --- LJ atom lanes vs their W = 1 instantiation ----------------------------

/// Forces on every owned and ghost row, plus the tallies, of one kernel call.
struct LaneRun {
  std::vector<double> f;
  EV ev;
};

bool same_bytes(const EV& a, const EV& b) {
  return std::memcmp(&a.evdwl, &b.evdwl, sizeof(double)) == 0 &&
         std::memcmp(&a.ecoul, &b.ecoul, sizeof(double)) == 0 &&
         std::memcmp(a.v, b.v, sizeof(a.v)) == 0;
}

/// A jittered two-type melt of `cells`^3 fcc cells plus one interstitial
/// atom, so the owned row count (4 cells^3 + 1) leaves a last block with
/// fewer than W rows. After setup, row 5 is emptied and every seventh row
/// is cut to a third of its length: the lanes of one block end at
/// different jj.
template <class Space>
std::unique_ptr<Simulation> lane_system(NeighStyle style, bool newton,
                                        int cells = 3) {
  init_all();
  auto sim = std::make_unique<Simulation>();
  sim->thermo.print = false;
  Input in(*sim);
  in.line("units lj");
  in.line("lattice fcc 0.8442");
  const std::string c = std::to_string(cells);
  in.line("create_atoms " + c + " " + c + " " + c + " jitter 0.08 4417");
  sim->atom.set_ntypes(2);
  sim->atom.add_atom(2, 1000, 0.84, 0.02, 0.03);
  sim->atom.sync<kk::Host>(TYPE_MASK);
  for (localint i = 0; i < sim->atom.nlocal; i += 3)
    sim->atom.k_type.h_view(std::size_t(i)) = 2;
  sim->atom.modified<kk::Host>(TYPE_MASK);
  in.line("mass 1 1.0");
  in.line("mass 2 2.0");
  in.line(std::string("pair_style ") +
          (Space::is_device ? "lj/cut/kk" : "lj/cut/kk/host") + " 2.5");
  in.line("pair_coeff 1 1 1.0 1.0");
  in.line("pair_coeff 1 2 0.8 1.1 2.2");
  in.line("pair_coeff 2 2 1.3 0.9 2.0");
  auto* pair = dynamic_cast<PairLJCutKokkos<Space>*>(sim->pair.get());
  pair->set_neighbor_mode(style, newton);
  sim->setup();

  NeighborList& list = sim->neighbor.list;
  list.k_numneigh.sync<kk::Host>();
  auto numneigh = list.k_numneigh.h_view;
  numneigh(5) = 0;
  for (std::size_t i = 2; i < std::size_t(list.inum); i += 7)
    numneigh(i) /= 3;
  list.k_numneigh.modify<kk::Host>();
  return sim;
}

template <class Space>
LaneRun collect(Simulation& sim, const EV& ev) {
  sim.atom.sync<kk::Host>(F_MASK);
  LaneRun out;
  out.ev = ev;
  const auto f = sim.atom.k_f.h_view;
  for (localint i = 0; i < sim.atom.nall(); ++i)
    for (std::size_t d = 0; d < 3; ++d) out.f.push_back(f(std::size_t(i), d));
  return out;
}

/// The whole force call (identity row map) at lane width W, through the
/// atom-parallel kernel or the team-parallel one.
template <class Space, int W>
LaneRun run_identity(Simulation& sim, bool eflag,
                     PairParallelism par = PairParallelism::Atom) {
  auto* pair = dynamic_cast<PairLJCutKokkos<Space>*>(sim.pair.get());
  PairComputeConfig cfg;
  cfg.scatter = kk::default_scatter_mode<Space>();
  cfg.eflag = eflag;
  cfg.parallelism = par;
  EV ev;
  on_one_participant<Space>([&] {
    sim.atom.zero_forces<Space>();
    ev = pair_compute_dispatch<Space, W>("test::lanes", sim.atom,
                                         sim.neighbor.list, pair->functor(),
                                         cfg);
    sim.atom.modified<Space>(F_MASK);
  });
  return collect<Space>(sim, ev);
}

/// The overlap split's two launches (interior, then boundary rows) at W.
template <class Space, int W>
LaneRun run_split(Simulation& sim, bool eflag) {
  auto* pair = dynamic_cast<PairLJCutKokkos<Space>*>(sim.pair.get());
  NeighborList& list = sim.neighbor.list;
  const auto scatter = kk::default_scatter_mode<Space>();
  EV ev;
  on_one_participant<Space>([&] {
    sim.atom.zero_forces<Space>();
    const PairViews<Space> views(sim.atom, list);
    list.k_interior.sync<Space>();
    list.k_boundary.sync<Space>();
    ev = pair_compute_rows<Space, true, false, W>(
        "test::interior", views, list.k_interior.template view<Space>(),
        std::size_t(list.ninterior), pair->functor(), scatter, eflag);
    ev += pair_compute_rows<Space, true, false, W>(
        "test::boundary", views, list.k_boundary.template view<Space>(),
        std::size_t(list.nboundary), pair->functor(), scatter, eflag);
    sim.atom.modified<Space>(F_MASK);
  });
  return collect<Space>(sim, ev);
}

void expect_lanes_match(const LaneRun& scalar, const LaneRun& lanes,
                        bool eflag, const char* what) {
  ASSERT_EQ(scalar.f.size(), lanes.f.size()) << what;
  EXPECT_TRUE(same_bytes(scalar.f, lanes.f)) << what << ": forces differ";
  if (eflag) {
    EXPECT_TRUE(same_bytes(scalar.ev, lanes.ev)) << what << ": tallies differ";
  }
}

template <class Space>
void check_list_style(NeighStyle style, bool newton, const char* what) {
  auto sim = lane_system<Space>(style, newton);
  ASSERT_NE(sim->atom.nlocal % NW, 0);
  for (const bool eflag : {false, true}) {
    const LaneRun scalar = run_identity<Space, 1>(*sim, eflag);
    const LaneRun lanes = run_identity<Space, NW>(*sim, eflag);
    expect_lanes_match(scalar, lanes, eflag, what);
    if (eflag) {
      EXPECT_NE(scalar.ev.evdwl, 0.0) << what;
    }
  }
  // Tallies ride along without touching the forces.
  EXPECT_TRUE(same_bytes(run_identity<Space, NW>(*sim, false).f,
                         run_identity<Space, NW>(*sim, true).f))
      << what;
}

TEST(LJLanes, FullListBitwiseMatchesScalarWidth) {
  check_list_style<kk::Host>(NeighStyle::Full, false, "host full");
  check_list_style<kk::Device>(NeighStyle::Full, false, "device full");
}

TEST(LJLanes, HalfNewtonOnBitwiseMatchesScalarWidth) {
  check_list_style<kk::Host>(NeighStyle::Half, true, "host half newton");
  check_list_style<kk::Device>(NeighStyle::Half, true, "device half newton");
}

TEST(LJLanes, HalfNewtonOffBitwiseMatchesScalarWidth) {
  check_list_style<kk::Host>(NeighStyle::Half, false, "host half");
  check_list_style<kk::Device>(NeighStyle::Half, false, "device half");
}

template <class Space>
void check_split(const char* what) {
  // Five cells leave rows more than one ghost cutoff from every face.
  auto sim = lane_system<Space>(NeighStyle::Full, false, 5);
  NeighborList& list = sim->neighbor.list;
  ASSERT_GT(list.ninterior, 0) << what;
  ASSERT_GT(list.nboundary, 0) << what;
  ASSERT_TRUE(list.ninterior % NW != 0 || list.nboundary % NW != 0) << what;
  for (const bool eflag : {false, true}) {
    const LaneRun scalar = run_split<Space, 1>(*sim, eflag);
    const LaneRun lanes = run_split<Space, NW>(*sim, eflag);
    expect_lanes_match(scalar, lanes, eflag, what);
    // Each full-list row is one complete sum: the split gives the fused
    // kernel's forces.
    EXPECT_TRUE(same_bytes(lanes.f, run_identity<Space, NW>(*sim, eflag).f))
        << what;
  }
}

TEST(LJLanes, OverlapRowMapsBitwiseMatchScalarWidth) {
  check_split<kk::Host>("host split");
  check_split<kk::Device>("device split");
}

// A full list adds each row's total once, so its forces are bitwise
// whatever participant runs which block: no serial wrapper here.
TEST(LJLanes, FullListForcesBitwiseOnThePool) {
  auto sim = lane_system<kk::Device>(NeighStyle::Full, false);
  auto* pair = dynamic_cast<PairLJCutKokkos<kk::Device>*>(sim->pair.get());
  PairComputeConfig cfg;
  const auto forces = [&](auto width) {
    sim->atom.zero_forces<kk::Device>();
    pair_compute_dispatch<kk::Device, decltype(width)::value>(
        "test::pool", sim->atom, sim->neighbor.list, pair->functor(), cfg);
    sim->atom.modified<kk::Device>(F_MASK);
    return collect<kk::Device>(*sim, EV{}).f;
  };
  EXPECT_TRUE(same_bytes(forces(std::integral_constant<int, 1>{}),
                         forces(std::integral_constant<int, NW>{})));
}

// --- The team kernel: neighbor lanes, W = 1 as its reference --------------

/// The team kernel sums each pack of W neighbors across lanes, so its native
/// width matches its W = 1 within tolerance. At W = 1 it adds each pair in
/// list order, as the atom-parallel kernel does, and the two share
/// detail::pair_lanes: on one participant their forces and tallies are
/// byte-identical.
template <class Space>
void check_team(NeighStyle style, bool newton, const char* what) {
  auto sim = lane_system<Space>(style, newton);
  const auto team = PairParallelism::Team;
  for (const bool eflag : {false, true}) {
    const LaneRun atom1 = run_identity<Space, 1>(*sim, eflag);
    const LaneRun team1 = run_identity<Space, 1>(*sim, eflag, team);
    const LaneRun lanes = run_identity<Space, NW>(*sim, eflag, team);
    expect_lanes_match(atom1, team1, eflag, what);
    ASSERT_EQ(team1.f.size(), lanes.f.size()) << what;
    for (std::size_t k = 0; k < team1.f.size(); ++k)
      EXPECT_NEAR(lanes.f[k], team1.f[k], 1e-8) << what << " force " << k;
    if (eflag) {
      EXPECT_NE(team1.ev.evdwl, 0.0) << what;
      EXPECT_NEAR(lanes.ev.evdwl, team1.ev.evdwl,
                  1e-8 * std::abs(team1.ev.evdwl))
          << what;
      for (int k = 0; k < 6; ++k)
        EXPECT_NEAR(lanes.ev.v[k], team1.ev.v[k],
                    1e-8 * std::abs(team1.ev.v[k]))
            << what << " virial " << k;
    }
  }
}

TEST(LJLanes, TeamKernelMatchesScalarWidth) {
  check_team<kk::Host>(NeighStyle::Full, false, "host team full");
  check_team<kk::Device>(NeighStyle::Full, false, "device team full");
  check_team<kk::Host>(NeighStyle::Half, true, "host team half newton");
  check_team<kk::Device>(NeighStyle::Half, true, "device team half newton");
  check_team<kk::Host>(NeighStyle::Half, false, "host team half");
  check_team<kk::Device>(NeighStyle::Half, false, "device team half");
}

}  // namespace
}  // namespace mlk
