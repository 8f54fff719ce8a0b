#include "pair/pair_eam.hpp"

#include <cmath>

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace mlk {

PairEAM::PairEAM() {
  style_name = "eam";
}

double PairEAM::rho_a(double rsq, double cutsq) {
  const double d = cutsq - rsq;
  return d > 0.0 ? d * d / (cutsq * cutsq) : 0.0;
}

double PairEAM::drho_a(double rsq, double cutsq) {
  // d(rho_a)/dr / r = -4 (cutsq - rsq) / cutsq^2
  const double d = cutsq - rsq;
  return d > 0.0 ? -4.0 * d / (cutsq * cutsq) : 0.0;
}

double PairEAM::phi(double rsq, double cutsq, double B) {
  const double d = cutsq - rsq;
  return d > 0.0 ? B * d * d / (cutsq * cutsq) : 0.0;
}

double PairEAM::dphi(double rsq, double cutsq, double B) {
  const double d = cutsq - rsq;
  return d > 0.0 ? -4.0 * B * d / (cutsq * cutsq) : 0.0;
}

double PairEAM::embed(double rho, double A) {
  return rho > 1e-30 ? -A * std::sqrt(rho) : 0.0;
}

double PairEAM::dembed(double rho, double A) {
  return rho > 1e-30 ? -0.5 * A / std::sqrt(rho) : 0.0;
}

void PairEAM::settings(const std::vector<std::string>& args) {
  if (!args.empty()) cut_ = to_double(args[0]);
  require(cut_ > 0.0, "eam: cutoff must be positive");
}

void PairEAM::coeff(const std::vector<std::string>& args) {
  require(args.size() >= 4 && args[0] == "*" && args[1] == "*",
          "eam coeff: * * <A> <B> [cut]");
  A_ = to_double(args[2]);
  B_ = to_double(args[3]);
  if (args.size() > 4) cut_ = to_double(args[4]);
  require(A_ > 0.0, "eam: embedding strength A must be positive");
}

void PairEAM::init(Simulation&) {}

void PairEAM::ensure_peratom(localint nall) {
  if (!k_rho_.is_allocated() || k_rho_.extent(0) < std::size_t(nall)) {
    k_rho_.realloc(std::size_t(nall) + 256);
    k_fp_.realloc(std::size_t(nall) + 256);
  }
}

void PairEAM::compute(Simulation& sim, bool eflag) {
  reset_accumulators();
  Atom& atom = sim.atom;
  atom.sync<kk::Host>(X_MASK | TYPE_MASK | F_MASK);
  auto& list = sim.neighbor.list;
  list.k_neighbors.sync<kk::Host>();
  list.k_numneigh.sync<kk::Host>();
  require(list.style == NeighStyle::Full, "eam requires a full neighbor list");

  const auto x = atom.k_x.h_view;
  auto f = atom.k_f.h_view;
  const auto neigh = list.k_neighbors.h_view;
  const auto numneigh = list.k_numneigh.h_view;
  const localint nlocal = atom.nlocal;
  const double cutsq = cut_ * cut_;

  ensure_peratom(atom.nall());
  auto rho = k_rho_.h_view;
  auto fp = k_fp_.h_view;

  // Pass 1: densities of owned atoms.
  for (localint i = 0; i < nlocal; ++i) {
    double acc = 0.0;
    for (int jj = 0; jj < numneigh(std::size_t(i)); ++jj) {
      const int j = neigh(std::size_t(i), std::size_t(jj));
      const double dx = x(std::size_t(i), 0) - x(std::size_t(j), 0);
      const double dy = x(std::size_t(i), 1) - x(std::size_t(j), 1);
      const double dz = x(std::size_t(i), 2) - x(std::size_t(j), 2);
      acc += rho_a(dx * dx + dy * dy + dz * dz, cutsq);
    }
    rho(std::size_t(i)) = acc;
    fp(std::size_t(i)) = dembed(acc, A_);
    if (eflag) eng_vdwl += embed(acc, A_);
  }
  k_fp_.modify<kk::Host>();

  // Mid-evaluation communication: ghosts need their owner's F'(rho)
  // (the "additional communication" of paper Fig. 1).
  sim.comm.forward_scalar(k_fp_);
  k_fp_.sync<kk::Host>();

  // Pass 2: forces. Full list: each directed pair handled once per owner.
  for (localint i = 0; i < nlocal; ++i) {
    double fxi = 0.0, fyi = 0.0, fzi = 0.0;
    for (int jj = 0; jj < numneigh(std::size_t(i)); ++jj) {
      const int j = neigh(std::size_t(i), std::size_t(jj));
      const double dx = x(std::size_t(i), 0) - x(std::size_t(j), 0);
      const double dy = x(std::size_t(i), 1) - x(std::size_t(j), 1);
      const double dz = x(std::size_t(i), 2) - x(std::size_t(j), 2);
      const double rsq = dx * dx + dy * dy + dz * dz;
      if (rsq >= cutsq) continue;
      // d/dr [F_i(rho_i) + F_j(rho_j) + phi] projected on r, divided by r.
      const double psip = (fp(std::size_t(i)) + fp(std::size_t(j))) *
                              drho_a(rsq, cutsq) +
                          dphi(rsq, cutsq, B_);
      const double fpair = -psip;
      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      if (eflag) {
        eng_vdwl += 0.5 * phi(rsq, cutsq, B_);
        virial[0] += 0.5 * dx * dx * fpair;
        virial[1] += 0.5 * dy * dy * fpair;
        virial[2] += 0.5 * dz * dz * fpair;
        virial[3] += 0.5 * dx * dy * fpair;
        virial[4] += 0.5 * dx * dz * fpair;
        virial[5] += 0.5 * dy * dz * fpair;
      }
    }
    f(std::size_t(i), 0) += fxi;
    f(std::size_t(i), 1) += fyi;
    f(std::size_t(i), 2) += fzi;
  }
  atom.modified<kk::Host>(F_MASK);
}

void register_pair_eam() {
  StyleRegistry::instance().add_pair(
      "eam", [](ExecSpaceKind) -> std::unique_ptr<Pair> {
        return std::make_unique<PairEAM>();
      });
}

}  // namespace mlk
