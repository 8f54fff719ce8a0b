#include <gtest/gtest.h>

#include <cmath>

#include "engine/fix_nve.hpp"
#include "pair/pair_lj_cut_kokkos.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

using testing::make_lj_system;

TEST(Units, LJDefaultsAreReduced) {
  const Units u = Units::make("lj");
  EXPECT_DOUBLE_EQ(u.boltz, 1.0);
  EXPECT_DOUBLE_EQ(u.mvv2e, 1.0);
}

TEST(Units, MetalConstants) {
  const Units u = Units::make("metal");
  EXPECT_NEAR(u.boltz, 8.617e-5, 1e-7);
  EXPECT_NEAR(u.mvv2e * u.ftm2v, 1.0, 1e-12);
}

TEST(Units, UnknownThrows) { EXPECT_THROW(Units::make("parsec"), Error); }

TEST(Atom, GrowPreservesData) {
  Atom a;
  a.set_ntypes(2);
  a.add_atom(1, 1, 0.1, 0.2, 0.3);
  a.add_atom(2, 2, 1.0, 1.1, 1.2);
  a.grow(5000);
  EXPECT_DOUBLE_EQ(a.k_x.h_view(0, 2), 0.3);
  EXPECT_EQ(a.k_type.h_view(1), 2);
  EXPECT_EQ(a.k_tag.h_view(1), 2);
  EXPECT_GE(a.nmax(), 5000);
}

TEST(Atom, MassPerType) {
  Atom a;
  a.set_ntypes(2);
  a.set_mass(1, 12.0);
  a.set_mass(2, 16.0);
  EXPECT_DOUBLE_EQ(a.mass_of_type(1), 12.0);
  EXPECT_DOUBLE_EQ(a.mass_of_type(2), 16.0);
  EXPECT_THROW(a.set_mass(3, 1.0), Error);
  EXPECT_THROW(a.set_mass(1, -1.0), Error);
}

TEST(Lattice, FccCountsAndDensity) {
  Simulation sim;
  LatticeSpec spec;
  spec.style = "fcc";
  spec.a = std::cbrt(4.0 / 0.8442);
  spec.nx = spec.ny = spec.nz = 3;
  create_lattice(spec, sim.domain, sim.atom);
  EXPECT_EQ(sim.atom.nlocal, 4 * 27);
  EXPECT_EQ(sim.atom.natoms, 4 * 27);
  const double rho = double(sim.atom.nlocal) / sim.domain.volume();
  EXPECT_NEAR(rho, 0.8442, 1e-9);
}

TEST(Lattice, HnsLikeHasTwoTypes) {
  Simulation sim;
  LatticeSpec spec;
  spec.style = "hns_like";
  spec.a = 5.0;
  spec.nx = spec.ny = spec.nz = 2;
  create_lattice(spec, sim.domain, sim.atom);
  EXPECT_EQ(sim.atom.nlocal, 8 * 8);
  int n1 = 0, n2 = 0;
  for (localint i = 0; i < sim.atom.nlocal; ++i)
    (sim.atom.k_type.h_view(std::size_t(i)) == 1 ? n1 : n2)++;
  EXPECT_EQ(n1, 32);
  EXPECT_EQ(n2, 32);
}

TEST(Velocity, TemperatureMatchesRequest) {
  auto sim = make_lj_system(4, 0.8442, 0.0, "lj/cut", 1.44);
  sim->setup();
  // Finite-N fluctuation: expect within a few percent for 1024 atoms.
  EXPECT_NEAR(sim->temperature(), 1.44, 0.1);
}

TEST(Velocity, NetMomentumIsZero) {
  auto sim = make_lj_system(3, 0.8442, 0.0);
  const auto v = sim->atom.k_v.h_view;
  double p[3] = {0, 0, 0};
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    for (int d = 0; d < 3; ++d) p[d] += v(std::size_t(i), std::size_t(d));
  for (int d = 0; d < 3; ++d) EXPECT_NEAR(p[d], 0.0, 1e-10);
}

TEST(Registry, SuffixResolution) {
  init_all();
  auto& reg = StyleRegistry::instance();
  auto host_pair = reg.create_pair("lj/cut/kk/host");
  EXPECT_EQ(host_pair->execution_space, ExecSpaceKind::Host);
  auto dev_pair = reg.create_pair("lj/cut/kk");
  EXPECT_EQ(dev_pair->execution_space, ExecSpaceKind::Device);
  auto dev2 = reg.create_pair("lj/cut/kk/device");
  EXPECT_EQ(dev2->execution_space, ExecSpaceKind::Device);
  auto plain = reg.create_pair("lj/cut");
  EXPECT_EQ(plain->execution_space, ExecSpaceKind::Host);
  // Plain nve is the Host instantiation under its own name.
  auto nve = reg.create_fix("nve");
  EXPECT_NE(dynamic_cast<FixNVEKokkos<kk::Host>*>(nve.get()), nullptr);
  EXPECT_EQ(nve->style_name, "nve");
}

TEST(Registry, GlobalSuffixUpgradesPlainNames) {
  init_all();
  auto& reg = StyleRegistry::instance();
  auto p = reg.create_pair("lj/cut", "kk");
  EXPECT_EQ(p->execution_space, ExecSpaceKind::Device);
  EXPECT_EQ(p->style_name, "lj/cut/kk");
  auto h = reg.create_pair("lj/cut", "kk/host");
  EXPECT_EQ(h->execution_space, ExecSpaceKind::Host);
}

TEST(Registry, UnknownStyleThrows) {
  init_all();
  EXPECT_THROW(StyleRegistry::instance().create_pair("eam/noexist"), Error);
  EXPECT_THROW(StyleRegistry::instance().create_fix("bogus"), Error);
}

TEST(Input, UnknownCommandThrows) {
  Simulation sim;
  Input in(sim);
  EXPECT_THROW(in.line("frobnicate 3"), Error);
}

TEST(Input, ComputeStylesAccessible) {
  auto sim = make_lj_system(2);
  Input in(*sim);
  in.line("compute t all temp");
  in.line("compute e all pe");
  sim->setup();
  Compute* t = in.find_compute("t");
  ASSERT_NE(t, nullptr);
  EXPECT_NEAR(t->compute_scalar(*sim), sim->temperature(), 1e-12);
  EXPECT_EQ(in.find_compute("missing"), nullptr);
}

TEST(NVE, EnergyConservedOverManySteps) {
  auto sim = make_lj_system(3, 0.8442, 0.0, "lj/cut", 1.44);
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("thermo 10");
  in.line("timestep 0.005");
  in.line("run 100");
  const auto& rows = sim->thermo.rows();
  ASSERT_GE(rows.size(), 2u);
  const double e0 = rows.front().etotal;
  for (const auto& r : rows)
    EXPECT_NEAR(r.etotal, e0, 2e-3 * std::abs(e0))
        << "drift at step " << r.step;
}

TEST(NVE, KokkosDeviceTrajectoryMatchesHost) {
  auto run_one = [](const std::string& pair_style, const std::string& fix) {
    auto sim = make_lj_system(2, 0.8442, 0.0, pair_style, 1.0);
    // Force identical neighbor configuration for bitwise-comparable runs.
    if (auto* kkp =
            dynamic_cast<PairLJCutKokkos<kk::Device>*>(sim->pair.get()))
      kkp->set_neighbor_mode(NeighStyle::Half, true);
    Input in(*sim);
    in.line("fix 1 all " + fix);
    in.line("thermo 5");
    in.line("run 20");
    return sim->thermo.rows().back();
  };
  const auto host = run_one("lj/cut", "nve");
  const auto dev = run_one("lj/cut/kk", "nve/kk");
  EXPECT_NEAR(host.etotal, dev.etotal, 1e-8 * std::abs(host.etotal));
  EXPECT_NEAR(host.temp, dev.temp, 1e-8);
}

TEST(Langevin, ThermostatsTowardTarget) {
  auto sim = make_lj_system(3, 0.8442, 0.0, "lj/cut", 0.1);
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("fix 2 all langevin 2.0 0.5 9281");
  in.line("thermo 50");
  in.line("run 400");
  const double t_end = sim->thermo.rows().back().temp;
  EXPECT_GT(t_end, 1.0);  // heated well above 0.1 toward 2.0
}

TEST(Thermo, RowsRecordedAtRequestedInterval) {
  auto sim = make_lj_system(2, 0.8442, 0.0, "lj/cut", 1.0);
  Input in(*sim);
  in.line("fix 1 all nve");
  in.line("thermo 25");
  in.line("run 100");
  const auto& rows = sim->thermo.rows();
  // setup row + steps 25,50,75,100.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].step, 0);
  EXPECT_EQ(rows[2].step, 50);
  EXPECT_EQ(rows.back().step, 100);
}

TEST(Pressure, ColdLatticeVirialMatchesdEdV) {
  // P = -dE/dV at T=0: compare the virial pressure against a numerical
  // volume derivative obtained by rescaling the box + coordinates.
  auto e_of_scale = [](double s) {
    auto sim = make_lj_system(3, 0.8442, 0.0, "lj/cut", 0.0);
    auto x = sim->atom.k_x.h_view;
    for (localint i = 0; i < sim->atom.nlocal; ++i)
      for (int d = 0; d < 3; ++d) x(std::size_t(i), std::size_t(d)) *= s;
    sim->domain.set_box(0, sim->domain.boxhi[0] * s, 0,
                        sim->domain.boxhi[1] * s, 0,
                        sim->domain.boxhi[2] * s);
    sim->atom.modified<kk::Host>(X_MASK);
    const double e = testing::total_pe(*sim);
    return std::make_pair(e, sim->domain.volume());
  };
  auto sim = make_lj_system(3, 0.8442, 0.0, "lj/cut", 0.0);
  testing::total_pe(*sim);
  const double p_virial = sim->pressure();

  const double ds = 1e-5;
  const auto [ep, vp] = e_of_scale(1.0 + ds);
  const auto [em, vm] = e_of_scale(1.0 - ds);
  const double p_numeric = -(ep - em) / (vp - vm);
  EXPECT_NEAR(p_virial, p_numeric, 1e-4 * std::max(1.0, std::abs(p_numeric)));
}

}  // namespace
}  // namespace mlk
