// snap_tungsten — the paper's machine-learning potential case study (§4.3):
// bcc tungsten driven by the SNAP bispectrum potential, run with the Kokkos
// device pipeline (ComputeUi -> ComputeYi -> ComputeFusedDeidrj).
//
// Usage: snap_tungsten [cells] [steps] [twojmax]
#include <cstdio>
#include <cstdlib>

#include "minilammps.hpp"
#include "snap/pair_snap_kokkos.hpp"

int main(int argc, char** argv) {
  const int cells = argc > 1 ? std::atoi(argv[1]) : 4;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 20;
  const int twojmax = argc > 3 ? std::atoi(argv[3]) : 8;

  mlk::init_all();
  mlk::Simulation sim;
  mlk::Input in(sim);

  in.line("units metal");
  in.line("lattice bcc 3.16");  // tungsten lattice constant (A)
  const std::string c = std::to_string(cells);
  in.line("create_atoms " + c + " " + c + " " + c + " jitter 0.01 5511");
  in.line("mass 1 183.84");
  in.line("velocity all create 600.0 9182");
  in.line("pair_style snap/kk");  // Kokkos device pipeline
  in.line("pair_coeff * * 4.7 " + std::to_string(twojmax) + " 7771");
  in.line("timestep 0.0005");  // ps
  in.line("fix 1 all nve/kk");
  in.line("thermo 5");

  in.line("run " + std::to_string(steps));

  auto* pair =
      dynamic_cast<mlk::PairSNAPKokkos<kk::Device>*>(sim.pair.get());
  const auto& idx = pair->kernels()->idx();
  std::printf("\nSNAP configuration:\n");
  std::printf("  twojmax=%d -> %d U components, %d Z entries, %d bispectrum "
              "coefficients\n",
              twojmax, idx.idxu_max, idx.idxz_max, idx.idxb_max);
  std::printf("  energy conservation: compare TotEng across the thermo rows "
              "above (drift should be well under 0.1%%)\n");
  return 0;
}
