// quickstart — the classic LAMMPS "melt" benchmark in ~30 lines.
//
// Builds an fcc Lennard-Jones crystal at reduced density 0.8442, gives it a
// Maxwell-Boltzmann velocity distribution at T* = 1.44, and integrates NVE
// with the Kokkos-accelerated pair style (suffix /kk, §3.1), printing thermo
// output every 50 steps. Energy should be conserved to ~0.1%.
//
// Usage: quickstart [cells] [steps]
#include <cstdio>
#include <cstdlib>

#include "minilammps.hpp"

int main(int argc, char** argv) {
  const int cells = argc > 1 ? std::atoi(argv[1]) : 6;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 250;

  mlk::init_all();
  mlk::Simulation sim;
  mlk::Input in(sim);

  in.line("units lj");
  in.line("lattice fcc 0.8442");
  in.line("create_atoms " + std::to_string(cells) + " " +
          std::to_string(cells) + " " + std::to_string(cells));
  in.line("mass 1 1.0");
  in.line("velocity all create 1.44 87287");
  in.line("suffix kk");                 // use Kokkos styles everywhere
  in.line("pair_style lj/cut 2.5");     // resolves to lj/cut/kk
  in.line("pair_coeff * * 1.0 1.0");
  in.line("neighbor 0.3 bin");
  in.line("neigh_modify every 20 check yes");
  in.line("fix 1 all nve");
  in.line("thermo 50");
  in.line("run " + std::to_string(steps));

  std::printf("\n%lld atoms, %d steps, pair style %s\n",
              static_cast<long long>(sim.atom.natoms), steps,
              sim.pair->style_name.c_str());
  std::printf("Timing breakdown (s): Pair %.3f  Neigh %.3f  Comm %.3f\n",
              sim.timers.total(mlk::Section::Pair),
              sim.timers.total(mlk::Section::Neigh),
              sim.timers.total(mlk::Section::Comm));
  return 0;
}
