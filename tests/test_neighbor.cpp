#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace mlk {
namespace {

using testing::make_lj_system;

// Canonical multiset of (i, j) entries of a list — owned and ghost rows —
// for order-independent comparison between builders.
std::multiset<std::pair<int, int>> list_pairs(const NeighborList& list) {
  std::multiset<std::pair<int, int>> out;
  auto& l = const_cast<NeighborList&>(list);
  l.k_neighbors.sync<kk::Host>();
  l.k_numneigh.sync<kk::Host>();
  for (localint i = 0; i < list.inum + list.gnum; ++i)
    for (int c = 0; c < l.k_numneigh.h_view(std::size_t(i)); ++c)
      out.emplace(int(i), l.k_neighbors.h_view(std::size_t(i), std::size_t(c)));
  return out;
}

// Row-wise neighbor table with each row sorted, for per-row comparison that
// is insensitive to within-row ordering (binned vs brute-force traversal).
std::vector<std::vector<int>> rows_sorted(const NeighborList& list) {
  auto& l = const_cast<NeighborList&>(list);
  l.k_neighbors.sync<kk::Host>();
  l.k_numneigh.sync<kk::Host>();
  std::vector<std::vector<int>> out(std::size_t(list.inum + list.gnum));
  for (localint i = 0; i < list.inum + list.gnum; ++i) {
    for (int c = 0; c < l.k_numneigh.h_view(std::size_t(i)); ++c)
      out[std::size_t(i)].push_back(
          l.k_neighbors.h_view(std::size_t(i), std::size_t(c)));
    std::sort(out[std::size_t(i)].begin(), out[std::size_t(i)].end());
  }
  return out;
}

// Exact row-wise table (original order), for the bitwise-order contract
// between the Host and Device builds.
std::vector<std::vector<int>> rows_exact(const NeighborList& list) {
  auto& l = const_cast<NeighborList&>(list);
  l.k_neighbors.sync<kk::Host>();
  l.k_numneigh.sync<kk::Host>();
  std::vector<std::vector<int>> out(std::size_t(list.inum + list.gnum));
  for (localint i = 0; i < list.inum + list.gnum; ++i)
    for (int c = 0; c < l.k_numneigh.h_view(std::size_t(i)); ++c)
      out[std::size_t(i)].push_back(
          l.k_neighbors.h_view(std::size_t(i), std::size_t(c)));
  return out;
}

struct NeighCase {
  NeighStyle style;
  bool newton;
};

class NeighborStyles : public ::testing::TestWithParam<NeighCase> {};

TEST_P(NeighborStyles, BinnedMatchesBruteForce) {
  auto sim = make_lj_system(3, 0.8442, 0.08);
  sim->neighbor.style = GetParam().style;
  sim->neighbor.newton = GetParam().newton;
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  sim->neighbor.build(sim->atom, sim->domain);

  auto ref = brute_force_list(sim->atom, sim->domain, sim->neighbor.cutghost(),
                              GetParam().style, GetParam().newton,
                              sim->atom.nlocal);
  EXPECT_EQ(list_pairs(sim->neighbor.list), list_pairs(ref));
  EXPECT_GT(sim->neighbor.list.total_pairs(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Styles, NeighborStyles,
    ::testing::Values(NeighCase{NeighStyle::Full, false},
                      NeighCase{NeighStyle::Half, false},
                      NeighCase{NeighStyle::Half, true}),
    [](const auto& info) {
      if (info.param.style == NeighStyle::Full) return "Full";
      return info.param.newton ? "HalfNewtonOn" : "HalfNewtonOff";
    });

TEST(Neighbor, FullHasTwiceTheLocalPairsOfHalf) {
  auto sim = make_lj_system(3, 0.8442, 0.0);
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);

  sim->neighbor.style = NeighStyle::Full;
  sim->neighbor.build(sim->atom, sim->domain);
  const bigint full_pairs = sim->neighbor.list.total_pairs();

  sim->neighbor.style = NeighStyle::Half;
  sim->neighbor.newton = true;
  sim->neighbor.build(sim->atom, sim->domain);
  const bigint half_pairs = sim->neighbor.list.total_pairs();

  // Full counts each owned-owned pair twice; owned-ghost pairs appear once
  // per owned endpoint in full and once total in half/newton-on, so full
  // is exactly double.
  EXPECT_EQ(full_pairs, 2 * half_pairs);
}

TEST(Neighbor, HalfNewtonOnEachPairAppearsOnceGlobally) {
  auto sim = make_lj_system(2, 0.8442, 0.05);
  sim->neighbor.style = NeighStyle::Half;
  sim->neighbor.newton = true;
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  sim->neighbor.build(sim->atom, sim->domain);

  // Map ghosts back to owners by tag; every unordered owner-pair + image
  // must appear exactly once in a half newton-on list.
  auto& l = sim->neighbor.list;
  auto tagv = sim->atom.k_tag.h_view;
  auto xv = sim->atom.k_x.h_view;
  std::set<std::tuple<tagint, tagint, long, long, long>> seen;
  for (localint i = 0; i < l.inum; ++i) {
    for (int c = 0; c < l.k_numneigh.h_view(std::size_t(i)); ++c) {
      const int j = l.k_neighbors.h_view(std::size_t(i), std::size_t(c));
      tagint ti = tagv(std::size_t(i)), tj = tagv(std::size_t(j));
      // Identify the periodic image by the rounded displacement.
      long ix = std::lround((xv(std::size_t(i), 0) - xv(std::size_t(j), 0)) * 1e6);
      long iy = std::lround((xv(std::size_t(i), 1) - xv(std::size_t(j), 1)) * 1e6);
      long iz = std::lround((xv(std::size_t(i), 2) - xv(std::size_t(j), 2)) * 1e6);
      if (ti > tj || (ti == tj && (ix < 0 || (ix == 0 && (iy < 0 || (iy == 0 && iz < 0)))))) {
        std::swap(ti, tj);
        ix = -ix;
        iy = -iy;
        iz = -iz;
      }
      auto key = std::make_tuple(ti, tj, ix, iy, iz);
      EXPECT_TRUE(seen.insert(key).second)
          << "duplicate pair " << ti << "-" << tj;
    }
  }
}

TEST(Neighbor, CheckDistanceTriggersOnLargeMove) {
  auto sim = make_lj_system(2, 0.8442, 0.0);
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  sim->neighbor.build(sim->atom, sim->domain);
  sim->neighbor.store_build_positions(sim->atom);
  EXPECT_FALSE(sim->neighbor.check_distance(sim->atom));

  auto x = sim->atom.k_x.h_view;
  x(0, 0) += 0.6 * sim->neighbor.skin;  // > skin/2
  EXPECT_TRUE(sim->neighbor.check_distance(sim->atom));
}

TEST(Neighbor, TwoDTableRowsAreBounded) {
  auto sim = make_lj_system(3, 0.8442, 0.05);
  sim->neighbor.style = NeighStyle::Full;
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  sim->neighbor.build(sim->atom, sim->domain);
  auto& l = sim->neighbor.list;
  EXPECT_EQ(l.k_neighbors.extent(0), std::size_t(l.inum));
  EXPECT_EQ(l.k_neighbors.extent(1), std::size_t(l.maxneighs));
  for (localint i = 0; i < l.inum; ++i)
    EXPECT_LE(l.k_numneigh.h_view(std::size_t(i)), l.maxneighs);
}

// --- Host/Device/brute-force equivalence sweep (docs/NEIGHBOR.md) --------
//
// Sweeps {half, full} x {newton on, off} x {ghost_rows} on a randomized box
// and checks three contracts at once:
//  * Device rows == Host rows *in order* (the bitwise-identity contract),
//  * both match brute_force_list up to within-row ordering,
//  * both spaces populate the interior/boundary partition identically and
//    ninterior + nboundary == inum (regression for the stale-partition bug).
struct EquivCase {
  NeighStyle style;
  bool newton;
  bool ghost_rows;
};

class NeighborEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(NeighborEquivalence, HostDeviceBruteForceAgree) {
  const EquivCase p = GetParam();
  auto sim = make_lj_system(3, 0.8442, 0.08);
  auto& n = sim->neighbor;
  n.style = p.style;
  n.newton = p.newton;
  n.ghost_rows = p.ghost_rows;
  n.cutoff = 2.5;
  sim->comm.cutghost = n.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  auto ref = brute_force_list(sim->atom, sim->domain, n.cutghost(), p.style,
                              p.newton, sim->atom.nlocal, p.ghost_rows);

  n.execution_space = ExecSpaceKind::Host;
  n.build(sim->atom, sim->domain);
  EXPECT_EQ(rows_sorted(n.list), rows_sorted(ref));
  const auto host_rows = rows_exact(n.list);
  const localint host_gnum = n.list.gnum;
  const localint host_ninterior = n.list.ninterior;
  n.list.k_interior.sync<kk::Host>();
  std::vector<int> host_interior;
  for (localint i = 0; i < n.list.ninterior; ++i)
    host_interior.push_back(n.list.k_interior.h_view(std::size_t(i)));
  ASSERT_EQ(n.list.ninterior + n.list.nboundary, n.list.inum);

  n.execution_space = ExecSpaceKind::Device;
  n.build(sim->atom, sim->domain);
  EXPECT_EQ(n.list.gnum, host_gnum);
  EXPECT_EQ(rows_exact(n.list), host_rows) << "Device rows differ from Host";

  // Partition: same size, same members, and it covers every owned row.
  EXPECT_EQ(n.list.ninterior + n.list.nboundary, n.list.inum);
  EXPECT_EQ(n.list.ninterior, host_ninterior);
  n.list.k_interior.sync<kk::Host>();
  std::vector<int> dev_interior;
  for (localint i = 0; i < n.list.ninterior; ++i)
    dev_interior.push_back(n.list.k_interior.h_view(std::size_t(i)));
  EXPECT_EQ(dev_interior, host_interior);

  EXPECT_EQ(ref.gnum, host_gnum);
  EXPECT_EQ(rows_sorted(n.list), rows_sorted(ref));
  if (p.ghost_rows) {
    EXPECT_GT(n.list.gnum, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NeighborEquivalence,
    ::testing::Values(EquivCase{NeighStyle::Full, false, false},
                      EquivCase{NeighStyle::Full, true, false},
                      EquivCase{NeighStyle::Full, false, true},
                      EquivCase{NeighStyle::Full, true, true},
                      EquivCase{NeighStyle::Half, false, false},
                      EquivCase{NeighStyle::Half, true, false}),
    [](const auto& info) {
      std::string name =
          info.param.style == NeighStyle::Full ? "Full" : "Half";
      name += info.param.newton ? "NewtonOn" : "NewtonOff";
      if (info.param.ghost_rows) name += "GhostRows";
      return name;
    });

TEST(Neighbor, HalfGhostRowsRejectedInBothSpaces) {
  auto sim = make_lj_system(2, 0.8442, 0.0);
  auto& n = sim->neighbor;
  n.style = NeighStyle::Half;
  n.ghost_rows = true;
  n.cutoff = 2.5;
  sim->comm.cutghost = n.cutghost();
  sim->comm.borders(sim->atom, sim->domain);

  for (const ExecSpaceKind space : {ExecSpaceKind::Host, ExecSpaceKind::Device}) {
    n.execution_space = space;
    EXPECT_THROW(n.build(sim->atom, sim->domain), Error);
  }
}

TEST(Neighbor, BruteForceMaxneighsMatchesHostSemantics) {
  // With a cutoff shorter than the nearest-neighbor distance every row is
  // empty: the brute-force builder reports maxneighs == 0 (true max, no
  // floor) while still allocating a 1-column table, and the binned build
  // stores no pairs either.
  auto sim = make_lj_system(2, 0.8442, 0.0);
  auto& n = sim->neighbor;
  n.cutoff = 0.1;
  n.skin = 0.05;
  sim->comm.cutghost = n.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  n.build(sim->atom, sim->domain);

  auto ref = brute_force_list(sim->atom, sim->domain, n.cutghost(),
                              NeighStyle::Full, false, sim->atom.nlocal);
  EXPECT_EQ(ref.maxneighs, 0);
  EXPECT_EQ(ref.k_neighbors.extent(1), std::size_t(1));
  EXPECT_EQ(n.list.total_pairs(), 0);
  EXPECT_EQ(ref.total_pairs(), 0);
}

// --- Resize-and-retry fill ------------------------------------------------

TEST(NeighborRetry, ResizeRetryAmortizesAcrossRebuilds) {
  auto sim = make_lj_system(3, 0.8442, 0.08);
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);

  Neighbor nb;
  nb.cutoff = 2.5;
  nb.skin = sim->neighbor.skin;
  nb.style = NeighStyle::Full;
  nb.execution_space = ExecSpaceKind::Device;
  nb.build(sim->atom, sim->domain);
  const bigint cold_retries = nb.nretries;
  EXPECT_GT(nb.maxneighs_hint, 0);

  // Steady state: the high-water capacity from the first build makes every
  // later build of the same configuration retry-free.
  for (int rep = 0; rep < 3; ++rep)
    nb.build(sim->atom, sim->domain);
  EXPECT_EQ(nb.nretries, cold_retries);
  EXPECT_EQ(nb.nbuilds, 4);

  // The hint covers the largest actual row.
  nb.list.k_numneigh.sync<kk::Host>();
  int true_max = 0;
  for (localint i = 0; i < nb.list.inum; ++i)
    true_max = std::max(true_max, nb.list.k_numneigh.h_view(std::size_t(i)));
  EXPECT_GE(nb.maxneighs_hint, true_max);
}

TEST(NeighborRetry, UndersizedHintRetriesThenRecovers) {
  auto sim = make_lj_system(3, 0.8442, 0.05);
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);

  Neighbor nb;
  nb.cutoff = 2.5;
  nb.skin = sim->neighbor.skin;
  nb.style = NeighStyle::Full;
  nb.execution_space = ExecSpaceKind::Device;
  nb.maxneighs_hint = 2;  // deliberately far too small
  nb.build(sim->atom, sim->domain);
  EXPECT_GE(nb.nretries, 1);
  EXPECT_GT(nb.maxneighs_hint, 2);

  // Overflow never corrupted the list: it matches a cold Host build.
  auto& host = sim->neighbor;
  host.build(sim->atom, sim->domain);
  EXPECT_EQ(rows_exact(nb.list), rows_exact(host.list));

  const bigint after_cold = nb.nretries;
  nb.build(sim->atom, sim->domain);
  EXPECT_EQ(nb.nretries, after_cold);  // grown capacity sticks
}

// --- Rebuild trigger: every / delay / check + dangerous builds ------------

TEST(Neighbor, WantsRebuildHonorsEveryDelayCheck) {
  auto sim = make_lj_system(2, 0.8442, 0.0);
  auto& n = sim->neighbor;
  n.cutoff = 2.5;
  sim->comm.cutghost = n.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  n.build(sim->atom, sim->domain);
  n.store_build_positions(sim->atom);
  n.last_build = 100;

  // delay gates absolutely, regardless of every/check.
  n.check = false;
  n.every = 1;
  n.delay = 10;
  EXPECT_FALSE(n.wants_rebuild(105, sim->atom));
  EXPECT_FALSE(n.wants_rebuild(109, sim->atom));
  EXPECT_TRUE(n.wants_rebuild(110, sim->atom));

  // every counts steps since the last build, not absolute-step multiples.
  n.delay = 0;
  n.every = 4;
  EXPECT_FALSE(n.wants_rebuild(101, sim->atom));
  EXPECT_FALSE(n.wants_rebuild(103, sim->atom));
  EXPECT_TRUE(n.wants_rebuild(104, sim->atom));

  // check: even an allowed step rebuilds only after real motion.
  n.check = true;
  n.every = 1;
  EXPECT_FALSE(n.wants_rebuild(104, sim->atom));
  auto x = sim->atom.k_x.h_view;
  x(0, 0) += 0.6 * n.skin;  // > skin/2
  EXPECT_TRUE(n.wants_rebuild(104, sim->atom));
}

// nve/kk moves x on the device only, so the distance check must sync and
// test this step's positions: with `every 1 delay 0 check yes`, the step on
// which an atom first passes skin/2 since the last build is the step that
// rebuilds — not the one after.
TEST(Neighbor, DeviceIntegratorRebuildsOnTheCrossingStep) {
  auto sim = make_lj_system(3, 0.8442, 0.0, "lj/cut/kk", 0.0);
  Input in(*sim);
  in.line("neigh_modify every 1 delay 0 check yes");
  in.line("fix 1 all nve/kk");
  sim->atom.sync<kk::Host>(V_MASK);
  sim->atom.k_v.h_view(0, 0) = 3.0;  // one fast atom in a cold lattice
  sim->atom.k_v.h_view(0, 1) = 1.0;
  sim->atom.modified<kk::Host>(V_MASK);
  sim->prepare_run();

  const auto positions = [&] {
    sim->atom.sync<kk::Host>(X_MASK);
    const auto x = sim->atom.k_x.h_view;
    std::vector<double> out;
    for (localint i = 0; i < sim->atom.nlocal; ++i)
      for (std::size_t d = 0; d < 3; ++d) out.push_back(x(std::size_t(i), d));
    return out;
  };
  const double trigger = 0.25 * sim->neighbor.skin * sim->neighbor.skin;
  std::vector<double> basis = positions();
  int rebuilds = 0;
  Verlet verlet(*sim);
  verlet.begin(60);
  while (!verlet.done()) {
    const Verlet::Phase p = verlet.step();
    const std::vector<double> x = positions();
    bool crossed = false;
    for (std::size_t i = 0; i < x.size(); i += 3) {
      double rsq = 0.0;
      for (std::size_t d = 0; d < 3; ++d)
        rsq += (x[i + d] - basis[i + d]) * (x[i + d] - basis[i + d]);
      crossed = crossed || rsq > trigger;
    }
    EXPECT_EQ(p.rebuild, crossed) << "step " << sim->ntimestep;
    if (p.rebuild) {
      ++rebuilds;
      basis = x;
    }
  }
  verlet.finish();
  EXPECT_GE(rebuilds, 2);
}

TEST(Neighbor, DangerousBuildCountedOnlyAtEarliestAllowedStep) {
  Neighbor n;
  n.check = true;
  n.every = 1;
  n.delay = 5;
  n.last_build = 100;
  n.note_dangerous(105);  // fired the first step delay permitted
  EXPECT_EQ(n.ndanger, 1);
  n.note_dangerous(107);  // fired later: healthy
  EXPECT_EQ(n.ndanger, 1);

  n.check = false;  // without check every build is scheduled, never dangerous
  n.note_dangerous(105);
  EXPECT_EQ(n.ndanger, 1);

  n.check = true;
  n.every = 10;
  n.delay = 0;
  n.last_build = 200;
  n.note_dangerous(210);  // first every-multiple
  EXPECT_EQ(n.ndanger, 2);
}

TEST(Neighbor, DelayHonoredDuringRun) {
  // A delay longer than the run must suppress every rebuild after setup.
  // (Before the fix, `delay` was parsed but never consulted.)
  auto sim = make_lj_system(3, 0.8442, 0.05);
  Input in(*sim);
  in.line("neigh_modify every 1 delay 1000 check yes");
  in.line("fix 1 all nve");
  in.line("run 30");
  EXPECT_EQ(sim->neighbor.nbuilds, 1);  // the setup build only
  EXPECT_EQ(sim->neighbor.ndanger, 0);
}

TEST(Neighbor, DangerousBuildsCountedDuringRun) {
  // Hot system + a delay that forces the list stale: the first allowed
  // rebuild step must trip the distance check and count as dangerous.
  auto sim = make_lj_system(3, 0.8442, 0.05, "lj/cut", 3.0);
  Input in(*sim);
  in.line("neigh_modify every 1 delay 20 check yes");
  in.line("fix 1 all nve");
  in.line("run 60");
  EXPECT_GT(sim->neighbor.nbuilds, 1);
  EXPECT_GE(sim->neighbor.ndanger, 1);
}

TEST(Neighbor, AvgNeighborsMatchesDensityEstimate) {
  // Ideal-gas estimate: full list row = rho * 4/3 pi rc^3 (rc = cut+skin).
  auto sim = make_lj_system(4, 0.8442, 0.02);
  sim->neighbor.style = NeighStyle::Full;
  sim->neighbor.cutoff = 2.5;
  sim->comm.cutghost = sim->neighbor.cutghost();
  sim->comm.borders(sim->atom, sim->domain);
  sim->neighbor.build(sim->atom, sim->domain);
  const double rc = sim->neighbor.cutghost();
  constexpr double kPi = 3.14159265358979323846;
  const double expect = 0.8442 * 4.0 / 3.0 * kPi * rc * rc * rc;
  EXPECT_NEAR(sim->neighbor.list.avg_neighbors(), expect, expect * 0.15);
}

}  // namespace
}  // namespace mlk
