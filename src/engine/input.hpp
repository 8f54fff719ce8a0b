// Input — the LAMMPS-style script interface (§2.1): commands either execute
// immediately (lattice, create_atoms, mass, ...) or instantiate persistent
// styles (pair_style, fix) that act during subsequent `run` commands.
//
// Supported commands (a working subset of LAMMPS):
//   units <lj|metal|real>
//   lattice <fcc|bcc|sc|hns_like> <scale>     (lj units: scale = reduced
//                                              density; else lattice constant)
//   create_atoms <nx> <ny> <nz> [jitter <frac> <seed>]
//   mass <type> <m>
//   set type <t> charge <q>
//   velocity all create <T> <seed>
//   velocity all scale <T>
//   pair_style <style> [args...]
//   pair_coeff <args...>
//   neighbor <skin> bin                  (the list is built in the pair
//                                         style's space, docs/NEIGHBOR.md)
//   neigh_modify [every N] [delay N] [check yes|no] [canonical yes|no]
//   sort <every N|off>                   (spatial sort, see
//                                         docs/DECOMPOSITION.md)
//   newton <on|off>
//   overlap <on|off>                     (comm/compute overlap, see
//                                         docs/EXECUTION_MODEL.md)
//   suffix <kk|kk/host|off>
//   package kokkos [...]                       (accepted for compatibility)
//   fix <id> all <style> [args...]         (nve[/kk], nvt, langevin[/kk],
//                                            dump/xyz <every> <file>)
//   unfix <id>
//   compute <id> all <style>                (temp, pe, ke, pressure, rdf,
//                                            msd, snap/bispectrum)
//   timestep <dt>
//   thermo <N>
//   run <N>
//   write_restart <file>                       (one-shot checkpoint)
//   read_restart <file>                        (resume from a checkpoint)
//   restart <N> <base>                         (periodic: base.<step>[.rank];
//                                               restart 0 disables)
//   profile <on|off|dump <file>>               (per-kernel timing + memory,
//                                               docs/OBSERVABILITY.md)
//   trace <file|stop>                          (chrome://tracing timeline)
//   telemetry <path[:opts]|flush|stop>         (real-time streaming snapshot
//                                               + NDJSON + in-situ analysis,
//                                               docs/OBSERVABILITY.md)
//   fault_inject <step|off>                    (kill the run mid-step at
//                                               <step>; MLK_FAULT_STEP env
//                                               overrides)
//   recover <base>                             (resume from the newest
//                                               CRC-valid base.<step> set)
//
// No command selects a kernel's SIMD lane width: widths are fixed at compile
// time (docs/VECTORIZATION.md).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "engine/lattice.hpp"
#include "engine/simulation.hpp"

namespace mlk {

class Input {
 public:
  explicit Input(Simulation& sim) : sim_(sim) {}

  /// Execute every line of a script file.
  void file(const std::string& path);

  /// Execute one command line.
  void line(const std::string& text);

  /// Access a named compute declared by the script.
  Compute* find_compute(const std::string& id);

 private:
  void execute(const std::vector<std::string>& words);

  Simulation& sim_;
  LatticeSpec lattice_;
  std::map<std::string, std::unique_ptr<Compute>> computes_;
};

}  // namespace mlk
