#include "snap/pair_snap.hpp"

#include <cmath>

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace mlk {

PairSNAP::PairSNAP() {
  style_name = "snap";
  needs_reverse_comm = true;  // writes ghost forces (f[j] -= fij)
}

void PairSNAP::coeff(const std::vector<std::string>& args) {
  require(args.size() >= 4 && args[0] == "*" && args[1] == "*",
          "snap coeff: * * <rcut> <twojmax> [seed]");
  params_.rcut = to_double(args[2]);
  params_.twojmax = to_int(args[3]);
  require(params_.rcut > 0.0, "snap: rcut must be positive");
  require(params_.twojmax >= 0 && params_.twojmax <= 12,
          "snap: twojmax out of range");
  sna_ = std::make_unique<snap::SNA>(params_);
  const int seed = args.size() > 4 ? to_int(args[4]) : 7771;
  if (beta_.empty()) beta_ = snap::synthetic_beta(sna_->ncoeff(), seed);
}

void PairSNAP::init(Simulation&) {
  require(sna_ != nullptr, "snap: pair_coeff not given");
  require(int(beta_.size()) == sna_->ncoeff(),
          "snap: beta length does not match ncoeff");
}

void PairSNAP::compute(Simulation& sim, bool eflag) {
  reset_accumulators();
  Atom& atom = sim.atom;
  atom.sync<kk::Host>(X_MASK | TYPE_MASK | F_MASK);
  auto& list = sim.neighbor.list;
  list.k_neighbors.sync<kk::Host>();
  list.k_numneigh.sync<kk::Host>();
  require(list.style == NeighStyle::Full, "snap requires a full list");

  const auto x = atom.k_x.h_view;
  auto f = atom.k_f.h_view;
  const auto neigh = list.k_neighbors.h_view;
  const auto numneigh = list.k_numneigh.h_view;
  const double rcutsq = params_.rcut * params_.rcut;

  if (eflag) b_last_.assign(std::size_t(atom.nlocal) * std::size_t(sna_->ncoeff()), 0.0);

  std::vector<int> jlist;
  std::vector<double> drlist;  // 4 per neighbor: dx dy dz r
  for (localint i = 0; i < list.inum; ++i) {
    // Gather neighbors inside the SNAP cutoff.
    jlist.clear();
    drlist.clear();
    for (int jj = 0; jj < numneigh(std::size_t(i)); ++jj) {
      const int j = neigh(std::size_t(i), std::size_t(jj));
      const double dx = x(std::size_t(j), 0) - x(std::size_t(i), 0);
      const double dy = x(std::size_t(j), 1) - x(std::size_t(i), 1);
      const double dz = x(std::size_t(j), 2) - x(std::size_t(i), 2);
      const double rsq = dx * dx + dy * dy + dz * dz;
      if (!snap::in_snap_cutoff(rsq, rcutsq)) continue;
      jlist.push_back(j);
      drlist.push_back(dx);
      drlist.push_back(dy);
      drlist.push_back(dz);
      drlist.push_back(std::sqrt(rsq));
    }

    // Step 1: neighborhood decomposition U.
    sna_->zero_ui();
    for (std::size_t k = 0; k < jlist.size(); ++k)
      sna_->add_neighbor_ui(&drlist[4 * k], drlist[4 * k + 3]);

    // Energy path: Z then B, E_i = beta . B_i.
    if (eflag) {
      sna_->compute_zi();
      sna_->compute_bi();
      const auto& b = sna_->blist();
      double ei = 0.0;
      for (int c = 0; c < sna_->ncoeff(); ++c) {
        ei += beta_[std::size_t(c)] * b[std::size_t(c)];
        b_last_[std::size_t(i) * std::size_t(sna_->ncoeff()) + std::size_t(c)] =
            b[std::size_t(c)];
      }
      eng_vdwl += ei;
    }

    // Force path: adjoint Y, then per-neighbor contraction.
    sna_->compute_yi(beta_.data());
    for (std::size_t k = 0; k < jlist.size(); ++k) {
      double fij[3];
      sna_->compute_dedr(&drlist[4 * k], drlist[4 * k + 3], fij);
      const int j = jlist[k];
      // fij = dE_i/d(r_j): force on j is -fij, reaction lands on i.
      for (int d = 0; d < 3; ++d) {
        f(std::size_t(i), std::size_t(d)) += fij[d];
        f(std::size_t(j), std::size_t(d)) -= fij[d];
      }
      if (eflag) {
        const double* dr = &drlist[4 * k];
        virial[0] -= dr[0] * fij[0];
        virial[1] -= dr[1] * fij[1];
        virial[2] -= dr[2] * fij[2];
        virial[3] -= dr[0] * fij[1];
        virial[4] -= dr[0] * fij[2];
        virial[5] -= dr[1] * fij[2];
      }
    }
  }
  atom.modified<kk::Host>(F_MASK);
}

void register_pair_snap() {
  StyleRegistry::instance().add_pair(
      "snap", [](ExecSpaceKind) -> std::unique_ptr<Pair> {
        return std::make_unique<PairSNAP>();
      });
}

}  // namespace mlk
