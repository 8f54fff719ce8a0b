// The engine builds the neighbor list in the execution space of the pair
// style that reads it (docs/NEIGHBOR.md), and trajectories with canonical
// rows are per-tag bitwise invariant under sort x balance x rank count.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <string>

#include "comm/simmpi.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

using testing::make_lj_system;

TEST(NeighDevice, BuildRunsInPairSpace) {
  // The list is written in the reading style's space, so the copy in that
  // space is current and the other one is stale until someone syncs it.
  // Either space fills the interior/boundary partition.
  for (const auto& [style, space] :
       {std::pair{"lj/cut", ExecSpaceKind::Host},
        std::pair{"lj/cut/kk/host", ExecSpaceKind::Host},
        std::pair{"lj/cut/kk", ExecSpaceKind::Device}}) {
    auto sim = make_lj_system(3, 0.8442, 0.05, style);
    sim->setup();
    const NeighborList& l = sim->neighbor.list;
    EXPECT_EQ(sim->neighbor.execution_space, space) << style;
    EXPECT_EQ(l.k_neighbors.need_sync<kk::Host>(),
              space == ExecSpaceKind::Device)
        << style;
    EXPECT_EQ(l.ninterior + l.nboundary, l.inum) << style;
  }
}

// --- sort x balance bitwise sweep -------------------------------------------
//
// Spatial sorting permutes storage order and `balance rcb` permutes atom
// *ownership*; with canonical neighbor rows (neigh_modify canonical yes) a
// trajectory must not depend on either (docs/DECOMPOSITION.md "bitwise
// policy"). The sweep runs melt (uniform) and droplet (vacuum-gap lattice,
// examples/in.droplet) under every combination of sort x balance x rank
// count and compares per-tag positions/velocities exactly against the
// sort-off/balance-off reference at the same rank count.

struct GlobalSnapshot {
  std::map<tagint, std::array<double, 6>> atoms;  // tag -> x[3], v[3]
  double pe = 0.0, ke = 0.0;
};

struct SweepConfig {
  bool droplet = false;
  bool sort = false;
  bool balance = false;
};

GlobalSnapshot run_sweep(int nranks, const SweepConfig& cfg, int steps) {
  init_all();
  GlobalSnapshot out;
  std::mutex mu;
  simmpi::World world(nranks);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.thermo.print = false;
    Input in(sim);
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    if (cfg.droplet)
      in.line("create_atoms 6 6 6 jitter 0.02 771 region 0 0.55 0 0.55 0 0.55");
    else
      in.line("create_atoms 4 4 4 jitter 0.02 771");
    in.line("mass 1 1.0");
    in.line("velocity all create 1.44 87287");
    in.line("suffix kk");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    in.line("neigh_modify canonical yes");
    if (cfg.sort) in.line("sort every 2");
    if (cfg.balance) in.line("balance rcb 1.1");
    in.line("fix 1 all nve");
    in.line("thermo 10");
    in.line("run " + std::to_string(steps));

    sim.atom.sync<kk::Host>(X_MASK | V_MASK | TAG_MASK);
    const double pe = sim.potential_energy();  // collectives: all ranks
    const double ke = sim.kinetic_energy();
    std::lock_guard<std::mutex> lk(mu);
    for (localint i = 0; i < sim.atom.nlocal; ++i) {
      std::array<double, 6> rec;
      for (int d = 0; d < 3; ++d) {
        rec[std::size_t(d)] = sim.atom.k_x.h_view(std::size_t(i), std::size_t(d));
        rec[std::size_t(3 + d)] =
            sim.atom.k_v.h_view(std::size_t(i), std::size_t(d));
      }
      const tagint t = sim.atom.k_tag.h_view(std::size_t(i));
      EXPECT_TRUE(out.atoms.emplace(t, rec).second)
          << "tag " << t << " owned by two ranks";
    }
    if (comm.rank() == 0) {
      out.pe = pe;
      out.ke = ke;
    }
  });
  return out;
}

void expect_same_trajectory(const GlobalSnapshot& ref, const GlobalSnapshot& got,
                            const std::string& what) {
  ASSERT_EQ(ref.atoms.size(), got.atoms.size()) << what;
  for (const auto& [tag, rec] : ref.atoms) {
    const auto it = got.atoms.find(tag);
    ASSERT_NE(it, got.atoms.end()) << what << ": tag " << tag << " lost";
    for (std::size_t k = 0; k < 6; ++k)
      ASSERT_EQ(rec[k], it->second[k])
          << what << ": tag " << tag << (k < 3 ? " position" : " velocity")
          << " component " << k % 3 << " diverged";
  }
  // Energy sums permute across ownership changes: NEAR, not EQ.
  EXPECT_NEAR(ref.pe, got.pe, 1e-9 * std::abs(ref.pe) + 1e-12) << what;
  EXPECT_NEAR(ref.ke, got.ke, 1e-9 * std::abs(ref.ke) + 1e-12) << what;
}

void sweep_scenario(bool droplet, int steps) {
  for (const int nranks : {1, 2}) {
    SweepConfig refcfg;
    refcfg.droplet = droplet;
    const GlobalSnapshot ref = run_sweep(nranks, refcfg, steps);
    ASSERT_FALSE(ref.atoms.empty());
    for (const bool sort : {false, true}) {
      for (const bool balance : {false, true}) {
        if (!sort && !balance) continue;
        SweepConfig cfg;
        cfg.droplet = droplet;
        cfg.sort = sort;
        cfg.balance = balance;
        const std::string what =
            std::string(droplet ? "droplet" : "melt") + " ranks=" +
            std::to_string(nranks) + (sort ? " sort" : "") +
            (balance ? " balance" : "");
        expect_same_trajectory(ref, run_sweep(nranks, cfg, steps), what);
      }
    }
  }
}

TEST(SortBalanceSweep, MeltBitwiseAcrossSortBalanceAndRanks) {
  sweep_scenario(/*droplet=*/false, 30);
}

TEST(SortBalanceSweep, DropletBitwiseAcrossSortBalanceAndRanks) {
  sweep_scenario(/*droplet=*/true, 30);
}

}  // namespace
}  // namespace mlk
