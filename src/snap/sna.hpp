// SNA — the SNAP bispectrum calculator (§4.3; Thompson et al. 2015).
//
// This is the serial, per-atom host pipeline the paper describes as the
// "initial, non-Kokkos CPU implementation": one set of staging arrays
// *without* an atom index, reused across outer-loop iterations. Its formulas
// and summation orders are the sna_recursion.hpp templates at T = double,
// which the Kokkos kernels (sna_kernels.hpp) run at lane width W over
// per-atom data structures and device data layouts; on one pool participant
// the kernels reproduce it bitwise, so it is their reference.
//
// Pipeline per atom i (paper's four steps):
//   1. zero_ui, add_neighbor_ui — self term, then each neighbor's switched U
//   2. compute_zi/bi   — triple products (energy path)
//      compute_yi      — beta-weighted adjoint Y (force path)
//   3+4. compute_dedr  — dU/dr_k per neighbor contracted with Y
#pragma once

#include <vector>

#include "snap/sna_recursion.hpp"

namespace mlk::snap {

class SNA {
 public:
  explicit SNA(const SnaParams& p);

  const SnaIndexes& idx() const { return idx_; }
  const SnaParams& params() const { return params_; }
  /// Number of bispectrum components (length of beta).
  int ncoeff() const { return idx_.idxb_max; }

  // --- Step 1: neighborhood decomposition -------------------------------
  /// Reset U accumulation and add the self term.
  void zero_ui();
  /// Add one neighbor at relative position dr (length r <= rcut).
  void add_neighbor_ui(const double dr[3], double r);

  // --- Step 2a (energy): Z then B ---------------------------------------
  void compute_zi();
  void compute_bi();
  const std::vector<double>& blist() const { return blist_; }

  // --- Step 2b (forces): adjoint Y --------------------------------------
  void compute_yi(const double* beta);

  // --- Steps 3+4: per-neighbor force ------------------------------------
  /// dE_i/d(r_k) for neighbor at dr: contracts Y with dU/dr_k.
  /// Returns the gradient in f[3] (caller applies signs).
  void compute_dedr(const double dr[3], double r, double f[3]);

  // Switching function (public for tests).
  double sfac(double r) const { return switching(params_, r); }
  double dsfac(double r) const { return dswitching(params_, r); }

  // Direct U access for invariance tests: flattened (j,ma,mb).
  const std::vector<double>& utot_r() const { return utot_r_; }
  const std::vector<double>& utot_i() const { return utot_i_; }

 private:
  SnaParams params_;
  SnaIndexes idx_;

  // Scratch (single copy, reused across atoms — host model).
  std::vector<double> ulist_r_, ulist_i_;      // per-neighbor U
  std::vector<double> utot_r_, utot_i_;        // accumulated U_j(i)
  std::vector<double> zlist_r_, zlist_i_;      // triple products
  std::vector<double> ylist_r_, ylist_i_;      // adjoint
  std::vector<double> blist_;                  // bispectrum
  std::vector<double> dulist_r_[3], dulist_i_[3];
};

/// Deterministic synthetic SNAP coefficients (no trained potentials ship
/// with this repo): smooth decaying, sign-alternating values.
std::vector<double> synthetic_beta(int ncoeff, int seed, double scale = 0.1);

}  // namespace mlk::snap
