// Shared fixtures: small ready-to-run systems and numerical differentiation
// used by force-correctness property tests across all potentials.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "minilammps.hpp"

namespace mlk::testing {

/// Build a serial LJ system on a jittered fcc lattice, fully set up
/// (ghosts + neighbor list + initial forces).
inline std::unique_ptr<Simulation> make_lj_system(
    int cells = 3, double rho = 0.8442, double jitter = 0.05,
    const std::string& style = "lj/cut", double temperature = 1.44) {
  init_all();
  auto sim = std::make_unique<Simulation>();
  Input in(*sim);
  in.line("units lj");
  in.line("lattice fcc " + std::to_string(rho));
  in.line("create_atoms " + std::to_string(cells) + " " +
          std::to_string(cells) + " " + std::to_string(cells) + " jitter " +
          std::to_string(jitter) + " 78123");
  in.line("mass 1 1.0");
  if (temperature > 0.0) in.line("velocity all create " +
                                 std::to_string(temperature) + " 87287");
  in.line("pair_style " + style + " 2.5");
  in.line("pair_coeff * * 1.0 1.0");
  sim->thermo.print = false;
  return sim;
}

/// Total potential energy of the current configuration (rebuilds ghosts,
/// neighbor list, and forces from scratch).
inline double total_pe(Simulation& sim) {
  if (!sim.setup_done) {
    sim.setup();
    return sim.potential_energy();
  }
  sim.atom.clear_ghosts();
  sim.comm.exchange(sim.atom, sim.domain);
  sim.comm.borders(sim.atom, sim.domain);
  sim.neighbor.build(sim.atom, sim.domain);
  sim.compute_forces(/*eflag=*/true);
  return sim.potential_energy();
}

/// Analytic force on atom i, dim d, for the current configuration.
inline double analytic_force(Simulation& sim, localint i, int d) {
  total_pe(sim);  // refresh forces
  sim.atom.sync<kk::Host>(F_MASK);
  return sim.atom.k_f.h_view(std::size_t(i), std::size_t(d));
}

/// Central-difference numerical force: -dE/dx_i,d.
inline double numerical_force(Simulation& sim, localint i, int d,
                              double h = 1e-6) {
  sim.atom.sync<kk::Host>(X_MASK);
  auto x = sim.atom.k_x.h_view;
  const double x0 = x(std::size_t(i), std::size_t(d));

  x(std::size_t(i), std::size_t(d)) = x0 + h;
  sim.atom.modified<kk::Host>(X_MASK);
  const double ep = total_pe(sim);

  x(std::size_t(i), std::size_t(d)) = x0 - h;
  sim.atom.modified<kk::Host>(X_MASK);
  const double em = total_pe(sim);

  x(std::size_t(i), std::size_t(d)) = x0;
  sim.atom.modified<kk::Host>(X_MASK);
  total_pe(sim);  // restore state
  return -(ep - em) / (2.0 * h);
}

}  // namespace mlk::testing
