// SNAKokkos — device-parallel SNAP kernels (§4.3.1-§4.3.4).
//
// Per-atom data structures (the "atom index degree of freedom" the paper
// adds for parallelism) are Views in the execution space's layout: on the
// Device the atom index is fastest (coalescing), on the Host the quantum
// number index is fastest (cache lines), exactly §4.3.1.
//
// Every stage is one lane kernel at the native kk::simd width W over the
// sna_recursion.hpp templates, the formulas the SNA reference runs at
// T = double. Each lane replays the scalar operation sequence, so results are
// bitwise those of a one-lane evaluation (docs/VECTORIZATION.md), and every
// sum (neighbors into U, Z into Y, B into the energy, forces and virial)
// runs in SNA's order, so on one pool participant forces, energy and virial
// are bitwise SNA's. Lane buffers live in team scratch (§4.4
// software-managed cache).
//   ComputeUi          — one team per atom, owning its U_tot row (no
//                        atomics): the row starts from the self term in
//                        scratch, the U recursion runs with lanes over W
//                        neighbors, each neighbor's switched U is added in
//                        neighbor order, and the row is written once.
//   ComputeZi/Bi       — energy path. Zi: one team per block of W atoms,
//                        lanes over atoms (§4.3.2's batching axis); Bi: per
//                        atom.
//   ComputeYi          — the Zi atom blocks, each zeroing its own Y rows and
//                        adding beta-weighted Z into them in flat-Z order.
//   ComputeFusedDeidrj — one team per (atom, chunk of W neighbors): fused dU
//                        recursion over all three directions with lanes over
//                        neighbors, the y·dU contraction per lane, then force
//                        and virial updates lane by lane in neighbor order
//                        (Table 2's fused kernel).
#pragma once

#include "engine/atom.hpp"
#include "engine/neighbor.hpp"
#include "kokkos/core.hpp"
#include "kokkos/team.hpp"
#include "snap/sna_recursion.hpp"

namespace mlk::snap {

template <class Space>
class SNAKokkos {
 public:
  explicit SNAKokkos(const SnaParams& p);

  const SnaIndexes& idx() const { return idx_; }
  int ncoeff() const { return idx_.idxb_max; }

  /// Stage neighbor data for nlocal atoms from an engine neighbor list
  /// (full style) — positions must be current in this Space.
  void stage_neighbors(Atom& atom, const NeighborList& list);

  /// U_tot for all staged atoms (self term + neighbor sum).
  void compute_ui();

  /// Energy path: Z, then B; returns beta . B summed over atoms and fills
  /// per-atom bispectrum rows.
  double compute_zi_bi_energy(const double* beta);

  /// Adjoint Y from beta.
  void compute_yi(const double* beta);

  /// Fused dU/dE contraction: accumulates forces into atom.k_f (this Space)
  /// and returns the virial contribution.
  void compute_fused_deidrj(Atom& atom, double virial_out[6]);

  // Staged per-atom views (exposed for tests/benches). They persist across
  // force calls and grow only when natom or maxneigh does.
  kk::View2D<double, Space> utot_r, utot_i;   // (natom, idxu_max)
  kk::View2D<double, Space> ylist_r, ylist_i; // (natom, idxu_max)
  kk::View2D<double, Space> zlist_r, zlist_i; // (natom, idxz_max)
  kk::View2D<double, Space> blist;            // (natom, idxb_max)
  kk::View3D<double, Space> neigh_dr;         // (natom, maxneigh, 4): dx dy dz r
  kk::View2D<int, Space> neigh_j;             // (natom, maxneigh): engine index
  kk::View1D<int, Space> nneigh;              // per-atom staged count
  localint natom = 0;
  int maxneigh = 0;

  const SnaParams& params() const { return params_; }

 private:
  SnaParams params_;
  SnaIndexes idx_;
};

}  // namespace mlk::snap
