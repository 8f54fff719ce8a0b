#include "snap/compute_snap_bispectrum.hpp"

#include <cmath>

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "util/error.hpp"

namespace mlk {

ComputeSnapBispectrum::ComputeSnapBispectrum(double rcut, int twojmax) {
  params_.rcut = rcut;
  params_.twojmax = twojmax;
  sna_ = std::make_unique<snap::SNA>(params_);
}

void ComputeSnapBispectrum::evaluate(Simulation& sim) {
  require(sim.setup_done, "snap/bispectrum: run setup() first");
  require(params_.rcut <= sim.neighbor.cutghost(),
          "snap/bispectrum: descriptor cutoff exceeds the neighbor list");
  Atom& atom = sim.atom;
  atom.sync<kk::Host>(X_MASK);
  auto& list = sim.neighbor.list;
  list.k_neighbors.sync<kk::Host>();
  list.k_numneigh.sync<kk::Host>();

  const auto x = atom.k_x.h_view;
  const auto neigh = list.k_neighbors.h_view;
  const auto numneigh = list.k_numneigh.h_view;
  const double rcutsq = params_.rcut * params_.rcut;

  desc_.assign(std::size_t(atom.nlocal) * std::size_t(sna_->ncoeff()), 0.0);
  for (localint i = 0; i < list.inum; ++i) {
    sna_->zero_ui();
    for (int c = 0; c < numneigh(std::size_t(i)); ++c) {
      const int j = neigh(std::size_t(i), std::size_t(c));
      const double dr[3] = {x(std::size_t(j), 0) - x(std::size_t(i), 0),
                            x(std::size_t(j), 1) - x(std::size_t(i), 1),
                            x(std::size_t(j), 2) - x(std::size_t(i), 2)};
      const double rsq = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
      if (!snap::in_snap_cutoff(rsq, rcutsq)) continue;
      sna_->add_neighbor_ui(dr, std::sqrt(rsq));
    }
    sna_->compute_zi();
    sna_->compute_bi();
    for (int c = 0; c < sna_->ncoeff(); ++c)
      desc_[std::size_t(i) * std::size_t(sna_->ncoeff()) + std::size_t(c)] =
          sna_->blist()[std::size_t(c)];
  }
}

double ComputeSnapBispectrum::compute_scalar(Simulation& sim) {
  evaluate(sim);
  double acc = 0.0;
  for (double d : desc_) acc += std::abs(d);
  return desc_.empty() ? 0.0 : acc / double(desc_.size());
}

void register_compute_snap_bispectrum() {
  StyleRegistry::instance().add_compute("snap/bispectrum", [] {
    // Default: tungsten-like cutoff, 2Jmax = 6.
    return std::make_unique<ComputeSnapBispectrum>(4.7, 6);
  });
}

}  // namespace mlk
