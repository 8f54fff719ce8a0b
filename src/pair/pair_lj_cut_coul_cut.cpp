#include "pair/pair_lj_cut_coul_cut.hpp"

#include <cmath>

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace mlk {

PairLJCutCoulCut::PairLJCutCoulCut() {
  style_name = "lj/cut/coul/cut";
}

void PairLJCutCoulCut::settings(const std::vector<std::string>& args) {
  if (!args.empty()) cut_global_ = to_double(args[0]);
  cut_coul_ = args.size() > 1 ? to_double(args[1]) : cut_global_;
  require(cut_global_ > 0.0 && cut_coul_ > 0.0,
          "lj/cut/coul/cut: cutoffs must be positive");
}

double PairLJCutCoulCut::cutoff() const {
  return std::max(max_cut_, cut_coul_);
}

void PairLJCutCoulCut::compute(Simulation& sim, bool eflag) {
  reset_accumulators();
  Atom& atom = sim.atom;
  atom.sync<kk::Host>(X_MASK | TYPE_MASK | Q_MASK | F_MASK);
  auto& list = sim.neighbor.list;
  list.k_neighbors.sync<kk::Host>();
  list.k_numneigh.sync<kk::Host>();

  const auto x = atom.k_x.h_view;
  auto f = atom.k_f.h_view;
  const auto type = atom.k_type.h_view;
  const auto q = atom.k_q.h_view;
  const auto neigh = list.k_neighbors.h_view;
  const auto numneigh = list.k_numneigh.h_view;
  const localint nlocal = atom.nlocal;
  const bool half = list.style == NeighStyle::Half;
  const bool newton = list.newton;
  const double cutsq_coul = cut_coul_ * cut_coul_;

  for (localint i = 0; i < list.inum; ++i) {
    const int itype = type(std::size_t(i));
    const double qi = q(std::size_t(i));
    double fxi = 0, fyi = 0, fzi = 0;
    for (int jj = 0; jj < numneigh(std::size_t(i)); ++jj) {
      const int j = neigh(std::size_t(i), std::size_t(jj));
      const double dx = x(std::size_t(i), 0) - x(std::size_t(j), 0);
      const double dy = x(std::size_t(i), 1) - x(std::size_t(j), 1);
      const double dz = x(std::size_t(i), 2) - x(std::size_t(j), 2);
      const double rsq = dx * dx + dy * dy + dz * dz;
      const int jtype = type(std::size_t(j));

      double fpair = 0.0, epair = 0.0, ecoul_pair = 0.0;
      if (rsq < cutsq_(std::size_t(itype), std::size_t(jtype))) {
        fpair += pair_force(rsq, lj1_(std::size_t(itype), std::size_t(jtype)),
                            lj2_(std::size_t(itype), std::size_t(jtype)));
        if (eflag)
          epair = pair_energy(rsq, lj3_(std::size_t(itype), std::size_t(jtype)),
                              lj4_(std::size_t(itype), std::size_t(jtype)));
      }
      if (rsq < cutsq_coul) {
        const double r = std::sqrt(rsq);
        const double ec = qqr2e * qi * q(std::size_t(j)) / r;
        fpair += ec / rsq;  // F/r = qq/r^3
        if (eflag) ecoul_pair = ec;
      }
      if (fpair == 0.0 && epair == 0.0 && ecoul_pair == 0.0) continue;

      const double fx = dx * fpair, fy = dy * fpair, fz = dz * fpair;
      fxi += fx;
      fyi += fy;
      fzi += fz;
      if (half) {
        f(std::size_t(j), 0) -= fx;
        f(std::size_t(j), 1) -= fy;
        f(std::size_t(j), 2) -= fz;
      }
      if (eflag) {
        const double factor = half ? ((j < nlocal || newton) ? 1.0 : 0.5) : 0.5;
        eng_vdwl += factor * epair;
        eng_coul += factor * ecoul_pair;
        virial[0] += factor * dx * fx;
        virial[1] += factor * dy * fy;
        virial[2] += factor * dz * fz;
        virial[3] += factor * dx * fy;
        virial[4] += factor * dx * fz;
        virial[5] += factor * dy * fz;
      }
    }
    f(std::size_t(i), 0) += fxi;
    f(std::size_t(i), 1) += fyi;
    f(std::size_t(i), 2) += fzi;
  }
  atom.modified<kk::Host>(F_MASK);
}

void register_pair_lj_cut_coul_cut() {
  StyleRegistry::instance().add_pair(
      "lj/cut/coul/cut", [](ExecSpaceKind) -> std::unique_ptr<Pair> {
        return std::make_unique<PairLJCutCoulCut>();
      });
}

}  // namespace mlk
