// pair_style snap — the machine-learning SNAP potential (§4.3), host
// implementation: outer loop over atoms, four subroutines per atom, single
// shared staging arrays (the paper's "initial, non-Kokkos CPU
// implementation").
//
// Trained coefficient files do not ship with this repo; coefficients are
// deterministic synthetic values (see DESIGN.md) or set programmatically
// via set_beta(), which is what every correctness test and bench does.
#pragma once

#include <memory>

#include "engine/pair.hpp"
#include "snap/sna.hpp"

namespace mlk {

class PairSNAP : public Pair {
 public:
  PairSNAP();

  /// coeff: * * <rcut> <twojmax> [seed]
  void coeff(const std::vector<std::string>& args) override;
  void init(Simulation& sim) override;
  void compute(Simulation& sim, bool eflag) override;
  double cutoff() const override { return params_.rcut; }
  NeighStyle neigh_style() const override { return NeighStyle::Full; }
  bool newton() const override { return false; }

  void set_beta(std::vector<double> beta) { beta_ = std::move(beta); }
  const std::vector<double>& beta() const { return beta_; }
  snap::SNA* sna() { return sna_.get(); }

  /// Per-atom bispectrum of the last eflag compute (tests).
  const std::vector<double>& last_bispectrum() const { return b_last_; }

 protected:
  snap::SnaParams params_;
  std::vector<double> beta_;
  std::unique_ptr<snap::SNA> sna_;
  std::vector<double> b_last_;
};

void register_pair_snap();

}  // namespace mlk
