#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>

#include "test_helpers.hpp"

namespace mlk {
namespace {

using testing::make_lj_system;

TEST(CommSerial, GhostCountMatchesShellGeometry) {
  // Perfect fcc lattice, no jitter: ghosts are atoms within cutghost of a
  // face, counted with multiplicity for edges (x2) and corners (x3 images).
  auto sim = make_lj_system(4, 0.8442, 0.0);
  const double cut = 2.8;
  sim->comm.cutghost = cut;
  sim->comm.borders(sim->atom, sim->domain);

  const auto x = sim->atom.k_x.h_view;
  const double L = sim->domain.prd(0);
  bigint expect = 0;
  for (localint i = 0; i < sim->atom.nlocal; ++i) {
    int mult = 1;
    for (int d = 0; d < 3; ++d) {
      const double xd = x(std::size_t(i), std::size_t(d));
      // One extra image per dimension within cut of either face.
      if (xd < cut || xd >= L - cut) mult *= 2;
    }
    expect += mult - 1;
  }
  EXPECT_EQ(bigint(sim->atom.nghost), expect);
}

TEST(CommSerial, GhostsAreExactPeriodicImages) {
  auto sim = make_lj_system(3, 0.8442, 0.07);
  sim->comm.cutghost = 2.8;
  sim->comm.borders(sim->atom, sim->domain);

  const auto x = sim->atom.k_x.h_view;
  const auto tag = sim->atom.k_tag.h_view;
  std::map<tagint, localint> owner;
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    owner[tag(std::size_t(i))] = i;

  for (localint g = sim->atom.nlocal; g < sim->atom.nall(); ++g) {
    auto it = owner.find(tag(std::size_t(g)));
    ASSERT_NE(it, owner.end());
    const localint o = it->second;
    for (int d = 0; d < 3; ++d) {
      const double diff = x(std::size_t(g), std::size_t(d)) -
                          x(std::size_t(o), std::size_t(d));
      const double L = sim->domain.prd(d);
      // Displacement must be a multiple of the box length (0 or ±L).
      const double k = diff / L;
      EXPECT_NEAR(k, std::round(k), 1e-12);
    }
  }
}

TEST(CommSerial, ForwardPositionsTracksOwnerMoves) {
  auto sim = make_lj_system(3, 0.8442, 0.0);
  sim->comm.cutghost = 2.8;
  sim->comm.borders(sim->atom, sim->domain);
  ASSERT_GT(sim->atom.nghost, 0);

  auto x = sim->atom.k_x.h_view;
  // Move every owned atom a little, then forward.
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    x(std::size_t(i), 0) += 0.01;
  sim->atom.modified<kk::Host>(X_MASK);
  sim->comm.forward_positions(sim->atom);

  const auto tag = sim->atom.k_tag.h_view;
  std::map<tagint, localint> owner;
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    owner[tag(std::size_t(i))] = i;
  for (localint g = sim->atom.nlocal; g < sim->atom.nall(); ++g) {
    const localint o = owner.at(tag(std::size_t(g)));
    const double L = sim->domain.prd(0);
    const double k = (x(std::size_t(g), 0) - x(std::size_t(o), 0)) / L;
    EXPECT_NEAR(k, std::round(k), 1e-12) << "ghost stale after forward";
  }
}

TEST(CommSerial, ReverseForcesConserveTotalAndLandOnOwners) {
  auto sim = make_lj_system(3, 0.8442, 0.0);
  sim->comm.cutghost = 2.8;
  sim->comm.borders(sim->atom, sim->domain);

  auto f = sim->atom.k_f.h_view;
  for (localint i = 0; i < sim->atom.nall(); ++i)
    for (int d = 0; d < 3; ++d) f(std::size_t(i), std::size_t(d)) = 0.0;
  // Put unit force on every ghost.
  for (localint g = sim->atom.nlocal; g < sim->atom.nall(); ++g)
    f(std::size_t(g), 0) = 1.0;
  sim->atom.modified<kk::Host>(F_MASK);
  const double total_before = double(sim->atom.nghost);

  sim->comm.reverse_forces(sim->atom);

  double total_owned = 0.0;
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    total_owned += f(std::size_t(i), 0);
  EXPECT_NEAR(total_owned, total_before, 1e-9);
}

TEST(CommSerial, SubboxThinnerThanCutghostIsRejected) {
  auto sim = make_lj_system(1, 0.8442, 0.0);  // 1 fcc cell: tiny box
  sim->comm.cutghost = 100.0;
  EXPECT_THROW(sim->comm.setup(sim->domain), Error);
}

TEST(CommMulti, DecomposedGhostsMatchSerialEnergy) {
  // The same global configuration must give the same potential energy when
  // split across 2 ranks as in serial.
  init_all();
  const int cells = 4;
  double e_serial = 0.0;
  {
    auto sim = make_lj_system(cells, 0.8442, 0.05);
    e_serial = testing::total_pe(*sim);
  }

  simmpi::World world(2);
  std::vector<double> e_ranks(2, 0.0);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    Input in(sim);
    sim.thermo.print = false;
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    in.line("create_atoms 4 4 4 jitter 0.05 78123");
    in.line("mass 1 1.0");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    sim.setup();
    e_ranks[std::size_t(comm.rank())] =
        sim.pair->eng_vdwl;  // local share
  });
  EXPECT_NEAR(e_ranks[0] + e_ranks[1], e_serial, 1e-9 * std::abs(e_serial));
}

TEST(CommMulti, AtomCountsConservedAcrossExchange) {
  init_all();
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    Input in(sim);
    sim.thermo.print = false;
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    in.line("create_atoms 4 4 4 jitter 0.05 78123");
    in.line("mass 1 1.0");
    in.line("velocity all create 2.0 12345");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    in.line("fix 1 all nve");
    in.line("thermo 10");
    in.line("run 20");
    const bigint total = comm.allreduce_sum(bigint(sim.atom.nlocal));
    EXPECT_EQ(total, sim.atom.natoms);
  });
}

TEST(CommMulti, TrajectoryIdenticalAcrossDecompositions) {
  // Strong integration property: velocity creation is tag-seeded and the
  // halo/exchange machinery is exact, so the 30-step trajectory is
  // decomposition-independent (up to summation order).
  init_all();
  auto run_decomposed = [&](int nranks) {
    double etot = 0.0;
    std::mutex mu;
    simmpi::World world(nranks);
    world.run([&](simmpi::Comm& comm) {
      Simulation sim;
      sim.mpi = nranks > 1 ? &comm : nullptr;
      sim.thermo.print = false;
      Input in(sim);
      in.line("units lj");
      in.line("lattice fcc 0.8442");
      in.line("create_atoms 4 4 4 jitter 0.02 771");
      in.line("mass 1 1.0");
      in.line("velocity all create 1.44 87287");
      in.line("pair_style lj/cut 2.5");
      in.line("pair_coeff * * 1.0 1.0");
      in.line("fix 1 all nve");
      in.line("thermo 30");
      in.line("run 30");
      const double e = sim.thermo.rows().back().etotal;
      std::lock_guard<std::mutex> lk(mu);
      if (comm.rank() == 0) etot = e;
    });
    return etot;
  };
  // Identical up to floating-point summation order (per-rank force
  // accumulation order differs), i.e. ~1e-13 relative.
  const double e1 = run_decomposed(1);
  EXPECT_NEAR(run_decomposed(2), e1, 1e-11 * std::abs(e1));
  EXPECT_NEAR(run_decomposed(4), e1, 1e-11 * std::abs(e1));
  EXPECT_NEAR(run_decomposed(8), e1, 1e-11 * std::abs(e1));
}

}  // namespace
}  // namespace mlk
