// Comm/compute overlap (docs/EXECUTION_MODEL.md): the interior/boundary
// neighbor partition, and bitwise identity of the overlapped Verlet force
// phase against the serialized path for the melt example — serial and
// decomposed over simmpi ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "comm/simmpi.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

using testing::make_lj_system;

struct Snapshot {
  std::vector<double> x, v;
  double pe = 0.0;
  double ke = 0.0;
};

Snapshot snapshot(Simulation& sim) {
  sim.atom.sync<kk::Host>(X_MASK | V_MASK);
  const auto x = sim.atom.k_x.h_view;
  const auto v = sim.atom.k_v.h_view;
  Snapshot s;
  for (localint i = 0; i < sim.atom.nlocal; ++i) {
    for (int d = 0; d < 3; ++d) {
      s.x.push_back(x(std::size_t(i), std::size_t(d)));
      s.v.push_back(v(std::size_t(i), std::size_t(d)));
    }
  }
  s.pe = sim.potential_energy();
  s.ke = sim.kinetic_energy();
  return s;
}

/// Same-length position/velocity arrays must match to the last bit; the
/// energies (different summation grouping in the split reduction) to a
/// relative tolerance.
void expect_bitwise(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.x.size(), b.x.size());
  ASSERT_EQ(a.v.size(), b.v.size());
  for (std::size_t k = 0; k < a.x.size(); ++k) {
    ASSERT_EQ(a.x[k], b.x[k]) << "position diverged at component " << k;
    ASSERT_EQ(a.v[k], b.v[k]) << "velocity diverged at component " << k;
  }
  EXPECT_NEAR(a.pe, b.pe, 1e-9 * std::abs(a.pe) + 1e-12);
  EXPECT_NEAR(a.ke, b.ke, 1e-9 * std::abs(a.ke) + 1e-12);
}

TEST(NeighborPartition, InteriorPlusBoundaryCoversOwnedRows) {
  auto sim = make_lj_system(3, 0.8442, 0.05, "lj/cut/kk");
  sim->setup();
  NeighborList& l = sim->neighbor.list;
  EXPECT_EQ(l.ninterior + l.nboundary, l.inum);
  // The device pair style's list is built on the device; read it on host.
  l.k_neighbors.sync<kk::Host>();
  l.k_numneigh.sync<kk::Host>();
  l.k_interior.sync<kk::Host>();
  l.k_boundary.sync<kk::Host>();
  // Serial box: every atom has ghost neighbors from the periodic images, so
  // the partition must find boundary rows; a 3-cell box also keeps interior
  // rows... validate the defining property row by row instead of counts.
  std::vector<char> seen(std::size_t(l.inum), 0);
  const auto neigh = l.k_neighbors.h_view;
  const auto num = l.k_numneigh.h_view;
  auto row_is_interior = [&](localint i) {
    for (int jj = 0; jj < num(std::size_t(i)); ++jj)
      if (neigh(std::size_t(i), std::size_t(jj)) >= l.inum) return false;
    return true;
  };
  for (localint k = 0; k < l.ninterior; ++k) {
    const int i = l.k_interior.h_view(std::size_t(k));
    EXPECT_TRUE(row_is_interior(i)) << "row " << i << " misclassified";
    seen[std::size_t(i)]++;
  }
  for (localint k = 0; k < l.nboundary; ++k) {
    const int i = l.k_boundary.h_view(std::size_t(k));
    EXPECT_FALSE(row_is_interior(i)) << "row " << i << " misclassified";
    seen[std::size_t(i)]++;
  }
  for (localint i = 0; i < l.inum; ++i)
    EXPECT_EQ(seen[std::size_t(i)], 1) << "row " << i << " not covered once";
}

TEST(Overlap, DeviceStyleSupportsOverlapHostDefaultDoesNot) {
  auto dev = make_lj_system(2, 0.8442, 0.02, "lj/cut/kk");
  dev->setup();
  EXPECT_TRUE(dev->pair->supports_overlap(dev->neighbor.list));

  // Host kokkos default is half + newton on: no early interior pass.
  auto host = make_lj_system(2, 0.8442, 0.02, "lj/cut/kk/host");
  host->setup();
  EXPECT_FALSE(host->pair->supports_overlap(host->neighbor.list));

  // Plain (non-kokkos) style has no overlap implementation at all.
  auto plain = make_lj_system(2, 0.8442, 0.02, "lj/cut");
  plain->setup();
  EXPECT_FALSE(plain->pair->supports_overlap(plain->neighbor.list));
  EXPECT_THROW(plain->pair->compute_boundary(*plain, true), Error);
}

Snapshot run_serial_melt(bool overlap, int steps) {
  auto sim = make_lj_system(3, 0.8442, 0.02, "lj/cut/kk", 1.44);
  sim->overlap_enabled = overlap;
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("thermo 10");
  in.line("run " + std::to_string(steps));
  return snapshot(*sim);
}

TEST(Overlap, SerialMeltTrajectoryBitwiseIdentical) {
  const Snapshot serialized = run_serial_melt(false, 40);
  const Snapshot overlapped = run_serial_melt(true, 40);
  expect_bitwise(serialized, overlapped);
}

std::vector<Snapshot> run_multirank_melt(int nranks, bool overlap, int steps) {
  init_all();
  std::vector<Snapshot> out(static_cast<std::size_t>(nranks));
  std::mutex mu;
  simmpi::World world(nranks);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.overlap_enabled = overlap;
    sim.thermo.print = false;
    Input in(sim);
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    in.line("create_atoms 4 4 4 jitter 0.02 771");
    in.line("mass 1 1.0");
    in.line("velocity all create 1.44 87287");
    in.line("suffix kk");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    in.line("fix 1 all nve");
    in.line("thermo 10");
    in.line("run " + std::to_string(steps));
    Snapshot s = snapshot(sim);  // collectives: every rank participates
    std::lock_guard<std::mutex> lk(mu);
    out[std::size_t(comm.rank())] = std::move(s);
  });
  return out;
}

TEST(Overlap, TwoRankMeltTrajectoryBitwiseIdentical) {
  const auto serialized = run_multirank_melt(2, false, 30);
  const auto overlapped = run_multirank_melt(2, true, 30);
  ASSERT_EQ(serialized.size(), overlapped.size());
  for (std::size_t r = 0; r < serialized.size(); ++r)
    expect_bitwise(serialized[r], overlapped[r]);
}

TEST(Overlap, InputCommandTogglesOverlap) {
  Simulation sim;
  Input in(sim);
  in.line("overlap on");
  EXPECT_TRUE(sim.overlap_enabled);
  in.line("overlap off");
  EXPECT_FALSE(sim.overlap_enabled);
}

}  // namespace
}  // namespace mlk
