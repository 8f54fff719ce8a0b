// Tests for the extended engine features: NVT thermostat, RDF, XYZ dump,
// charged LJ, velocity scaling, `set` command, script files, and the §3.2
// claim that flag-driven sync eliminates redundant host<->device transfers
// during a fully device-resident run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "engine/compute_rdf.hpp"
#include "engine/dump_xyz.hpp"
#include "engine/fix_nvt.hpp"
#include "pair/pair_lj_cut_coul_cut.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

using testing::make_lj_system;
using testing::total_pe;

TEST(FixNVT, ThermostatsToTargetTemperature) {
  auto sim = make_lj_system(3, 0.8442, 0.0, "lj/cut", 0.7);
  Input in(*sim);
  in.line("fix 1 all nvt 1.6 0.25");
  in.line("thermo 100");
  in.line("run 2500");
  // Time-averaged tail temperature near the target.
  const auto& rows = sim->thermo.rows();
  double avg = 0.0;
  int count = 0;
  for (std::size_t k = 3 * rows.size() / 4; k < rows.size(); ++k) {
    avg += rows[k].temp;
    ++count;
  }
  avg /= count;
  EXPECT_NEAR(avg, 1.6, 0.2);
}

TEST(FixNVT, RejectsBadArgs) {
  FixNVT f;
  EXPECT_THROW(f.parse_args({"1.0"}), Error);
  EXPECT_THROW(f.parse_args({"-1.0", "0.5"}), Error);
  EXPECT_THROW(f.parse_args({"1.0", "0"}), Error);
}

TEST(ComputeRDF, FccColdLatticePeaksAtNearestNeighborDistance) {
  auto sim = make_lj_system(4, 0.8442, 0.0, "lj/cut", 0.0);
  sim->setup();
  ComputeRDF rdf(120, 2.5);
  rdf.evaluate(*sim);
  // First (and tallest) peak at the fcc nearest-neighbor distance
  // a/sqrt(2) with a = (4/rho)^(1/3).
  const double a = std::cbrt(4.0 / 0.8442);
  const double r_nn = a / std::sqrt(2.0);
  double best_r = 0.0, best_g = 0.0;
  for (std::size_t b = 0; b < rdf.gr().size(); ++b)
    if (rdf.gr()[b] > best_g) {
      best_g = rdf.gr()[b];
      best_r = rdf.r_centers()[b];
    }
  EXPECT_NEAR(best_r, r_nn, 0.05);
  EXPECT_GT(best_g, 10.0);  // delta-like crystal peak
}

TEST(ComputeRDF, LiquidStructureIsNormalized) {
  // After a melt, g(r) -> O(1) between peaks and integrates sensibly.
  auto sim = make_lj_system(4, 0.8442, 0.0, "lj/cut", 1.44);
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("thermo 200");
  in.line("run 200");
  ComputeRDF rdf(100, 2.5);
  rdf.evaluate(*sim);
  // Tail (r near cutoff) should be near 1 for a homogeneous liquid.
  double tail = 0.0;
  int count = 0;
  for (std::size_t b = rdf.gr().size() - 10; b < rdf.gr().size(); ++b) {
    tail += rdf.gr()[b];
    ++count;
  }
  EXPECT_NEAR(tail / count, 1.0, 0.25);
  // Excluded core: g(r) == 0 below ~0.8 sigma.
  EXPECT_NEAR(rdf.gr()[5], 0.0, 1e-12);
}

TEST(DumpXYZ, WritesFramesWithAllAtoms) {
  const std::string path = "/tmp/mlk_test_dump.xyz";
  std::remove(path.c_str());
  auto sim = make_lj_system(2, 0.8442, 0.0, "lj/cut", 1.0);
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("fix d all dump/xyz 5 " + path);
  in.line("thermo 10");
  in.line("run 10");

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(std::stoi(line), 32);  // 2^3 fcc cells = 32 atoms
  std::getline(f, line);
  EXPECT_NE(line.find("step="), std::string::npos);
  int atom_lines = 0, frames = 1;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    int t;
    double x, y, z;
    if (is >> t >> x >> y >> z)
      ++atom_lines;
    else if (line == "32")
      ++frames;
  }
  EXPECT_EQ(frames, 2);           // steps 5 and 10
  EXPECT_EQ(atom_lines, 2 * 32);
  std::remove(path.c_str());
}

TEST(LJCoulCut, ReducesToPlainLJWithZeroCharges) {
  auto plain = make_lj_system(3, 0.8442, 0.05, "lj/cut");
  const double e_plain = total_pe(*plain);

  auto charged = make_lj_system(3, 0.8442, 0.05, "lj/cut/coul/cut");
  const double e_charged = total_pe(*charged);
  EXPECT_NEAR(e_charged, e_plain, 1e-12 * std::abs(e_plain));
}

TEST(LJCoulCut, TwoChargesMatchCoulombLaw) {
  // Two isolated charges in a big box: E = q1 q2 / r exactly (no periodic
  // image falls inside the Coulomb cutoff).
  init_all();
  Simulation sim;
  sim.thermo.print = false;
  sim.domain.set_box(0, 12, 0, 12, 0, 12);
  sim.atom.set_ntypes(1);
  sim.atom.set_mass(1, 1.0);
  sim.atom.add_atom(1, 1, 1.0, 1.0, 1.0);
  sim.atom.add_atom(1, 2, 4.0, 1.0, 1.0);  // r = 3
  sim.atom.natoms = 2;
  sim.atom.k_q.h_view(0) = 0.5;
  sim.atom.k_q.h_view(1) = -0.2;
  sim.atom.k_q.modify<kk::Host>();
  sim.pair = StyleRegistry::instance().create_pair("lj/cut/coul/cut");
  sim.pair->settings({"0.9", "4.5"});
  sim.pair->ntypes_hint = 1;
  sim.pair->coeff({"*", "*", "0.0", "0.5"});
  const double e = total_pe(sim);
  EXPECT_NEAR(e, 0.5 * -0.2 / 3.0, 1e-12);
}

TEST(LJCoulCut, ForcesMatchNumericalGradient) {
  init_all();
  auto sim = std::make_unique<Simulation>();
  Input in(*sim);
  in.line("units lj");
  in.line("lattice fcc 0.8442");
  in.line("create_atoms 3 3 3 jitter 0.05 78123");
  in.line("mass 1 1.0");
  in.line("set type 1 charge 0.3");
  in.line("pair_style lj/cut/coul/cut 2.5 2.5");
  in.line("pair_coeff * * 1.0 1.0");
  sim->thermo.print = false;
  total_pe(*sim);
  sim->atom.sync<kk::Host>(F_MASK);
  for (localint i : {0, 17}) {
    for (int d = 0; d < 3; ++d) {
      const double fa = sim->atom.k_f.h_view(std::size_t(i), std::size_t(d));
      const double fn = testing::numerical_force(*sim, i, d);
      EXPECT_NEAR(fa, fn, 1e-5 * std::max(1.0, std::abs(fa)));
      sim->atom.sync<kk::Host>(F_MASK);
    }
  }
}

TEST(Input, VelocityScaleHitsTarget) {
  auto sim = make_lj_system(3, 0.8442, 0.0, "lj/cut", 1.0);
  sim->setup();
  Input in(*sim);
  in.line("velocity all scale 2.5");
  EXPECT_NEAR(sim->temperature(), 2.5, 1e-9);
}

TEST(Input, ScriptFileRunsEndToEnd) {
  const std::string path = "/tmp/mlk_test_script.lmp";
  {
    std::ofstream f(path);
    f << "# test script\n"
      << "units lj\n"
      << "lattice fcc 0.8442\n"
      << "create_atoms 3 3 3\n"
      << "mass 1 1.0\n"
      << "velocity all create 1.44 87287\n"
      << "pair_style lj/cut 2.5\n"
      << "pair_coeff * * 1.0 1.0\n"
      << "fix 1 all nve\n"
      << "thermo 10\n"
      << "run 20\n";
  }
  init_all();
  Simulation sim;
  sim.thermo.print = false;
  Input in(sim);
  in.file(path);
  EXPECT_EQ(sim.ntimestep, 20);
  EXPECT_EQ(sim.atom.natoms, 108);
  std::remove(path.c_str());
  EXPECT_THROW(in.file("/tmp/does_not_exist.lmp"), Error);
}

TEST(DataMovement, DeviceResidentRunAvoidsTransfers) {
  // §3.2: a run where every style executes on the device should incur O(1)
  // position transfers, not O(steps). (Host-side comm packs positions each
  // step, so x syncs device->host once per step but never back.)
  auto sim = make_lj_system(2, 0.8442, 0.0, "lj/cut/kk", 1.0);
  Input in(*sim);
  in.line("fix 1 all nve/kk");
  in.line("thermo 100");
  in.line("neigh_modify every 5 check no");  // force rebuilds
  sim->setup();
  const std::size_t before_f = sim->atom.k_f.transfer_count();
  const NeighborList& list = sim->neighbor.list;
  const std::size_t before_neigh = list.k_neighbors.transfer_count();
  const std::size_t before_num = list.k_numneigh.transfer_count();
  sim->run(50);
  // Forces live on the device throughout: zeroed there, computed there,
  // integrated there. Reverse comm is off (full list), so f never moves
  // except for rare neighbor rebuilds.
  const std::size_t f_moves = sim->atom.k_f.transfer_count() - before_f;
  EXPECT_LE(f_moves, 2u);
  // The list is built in the pair style's space: every rebuild writes the
  // device copy the kernel reads, so the table never crosses over.
  EXPECT_GE(sim->neighbor.nbuilds, 10);
  EXPECT_EQ(list.k_neighbors.transfer_count(), before_neigh);
  EXPECT_EQ(list.k_numneigh.transfer_count(), before_num);

  // Canonical rows are sorted in the space that built them: still no copy,
  // from the first canonical build through the run.
  auto canon = make_lj_system(2, 0.8442, 0.0, "lj/cut/kk", 1.0);
  Input in_canon(*canon);
  in_canon.line("fix 1 all nve/kk");
  in_canon.line("thermo 100");
  in_canon.line("neigh_modify every 5 check no canonical yes");
  const NeighborList& clist = canon->neighbor.list;
  const std::size_t canon_neigh = clist.k_neighbors.transfer_count();
  const std::size_t canon_num = clist.k_numneigh.transfer_count();
  canon->setup();
  canon->run(50);
  EXPECT_GE(canon->neighbor.nbuilds, 10);
  EXPECT_EQ(clist.k_neighbors.transfer_count(), canon_neigh);
  EXPECT_EQ(clist.k_numneigh.transfer_count(), canon_num);

  // A plain host style gets a host-built list: nothing to copy either.
  auto plain = make_lj_system(2, 0.8442, 0.0, "lj/cut", 1.0);
  Input in_plain(*plain);
  in_plain.line("fix 1 all nve");
  in_plain.line("thermo 100");
  in_plain.line("neigh_modify every 5 check no");
  plain->run(50);
  EXPECT_GE(plain->neighbor.nbuilds, 10);
  EXPECT_EQ(plain->neighbor.list.k_neighbors.transfer_count(), 0u);
  EXPECT_EQ(plain->neighbor.list.k_numneigh.transfer_count(), 0u);

  // Contrast: a host fix forces per-step migrations of v and f.
  auto mixed = make_lj_system(2, 0.8442, 0.0, "lj/cut/kk", 1.0);
  Input in2(*mixed);
  in2.line("fix 1 all nve");  // host integrator + device pair
  in2.line("thermo 100");
  mixed->setup();
  const std::size_t before_mixed = mixed->atom.k_f.transfer_count();
  mixed->run(50);
  EXPECT_GE(mixed->atom.k_f.transfer_count() - before_mixed, 50u);
}

}  // namespace
}  // namespace mlk
