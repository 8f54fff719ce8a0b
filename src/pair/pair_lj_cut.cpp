#include "pair/pair_lj_cut.hpp"

#include <cmath>

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace mlk {

PairLJCut::PairLJCut() { style_name = "lj/cut"; }

double PairLJCut::pair_force(double rsq, double lj1, double lj2) {
  const double r2inv = 1.0 / rsq;
  const double r6inv = r2inv * r2inv * r2inv;
  return r6inv * (lj1 * r6inv - lj2) * r2inv;
}

double PairLJCut::pair_energy(double rsq, double lj3, double lj4) {
  const double r2inv = 1.0 / rsq;
  const double r6inv = r2inv * r2inv * r2inv;
  return r6inv * (lj3 * r6inv - lj4);
}

void PairLJCut::settings(const std::vector<std::string>& args) {
  if (!args.empty()) cut_global_ = to_double(args[0]);
  require(cut_global_ > 0.0, "lj/cut: cutoff must be positive");
}

void PairLJCut::allocate(int ntypes) {
  if (ntypes_ >= ntypes) return;
  ntypes_ = ntypes;
  const std::size_t n = std::size_t(ntypes) + 1;
  epsilon_ = kk::View<double, 2>("lj::epsilon", n, n);
  sigma_ = kk::View<double, 2>("lj::sigma", n, n);
  cut_ = kk::View<double, 2>("lj::cut", n, n);
  cutsq_ = kk::View<double, 2>("lj::cutsq", n, n);
  lj1_ = kk::View<double, 2>("lj::lj1", n, n);
  lj2_ = kk::View<double, 2>("lj::lj2", n, n);
  lj3_ = kk::View<double, 2>("lj::lj3", n, n);
  lj4_ = kk::View<double, 2>("lj::lj4", n, n);
}

void PairLJCut::set_coeff(int t1, int t2, double eps, double sigma,
                          double cut) {
  const std::size_t a = std::size_t(t1), b = std::size_t(t2);
  for (auto [i, j] : {std::pair{a, b}, std::pair{b, a}}) {
    epsilon_(i, j) = eps;
    sigma_(i, j) = sigma;
    cut_(i, j) = cut;
    cutsq_(i, j) = cut * cut;
    lj1_(i, j) = 48.0 * eps * std::pow(sigma, 12.0);
    lj2_(i, j) = 24.0 * eps * std::pow(sigma, 6.0);
    lj3_(i, j) = 4.0 * eps * std::pow(sigma, 12.0);
    lj4_(i, j) = 4.0 * eps * std::pow(sigma, 6.0);
  }
  max_cut_ = std::max(max_cut_, cut);
  coeffs_set_ = true;
}

void PairLJCut::coeff(const std::vector<std::string>& args) {
  require(args.size() >= 4, "lj/cut coeff: <t1> <t2> <eps> <sigma> [cut]");
  const double eps = to_double(args[2]);
  const double sigma = to_double(args[3]);
  const double cut = args.size() > 4 ? to_double(args[4]) : cut_global_;
  // Wildcards require ntypes known; allocate lazily large enough.
  const bool wild1 = args[0] == "*";
  const bool wild2 = args[1] == "*";
  const int t1 = wild1 ? 1 : to_int(args[0]);
  const int t2 = wild2 ? 1 : to_int(args[1]);
  const int hi = std::max({t1, t2, ntypes_, ntypes_hint, 1});
  allocate(hi);
  for (int a = wild1 ? 1 : t1; a <= (wild1 ? ntypes_ : t1); ++a)
    for (int b = wild2 ? 1 : t2; b <= (wild2 ? ntypes_ : t2); ++b)
      set_coeff(a, b, eps, sigma, cut);
}

bool PairLJCut::pack_restart(io::BinaryWriter& w) const {
  w.put(cut_global_);
  w.put(std::int32_t(ntypes_));
  w.put(std::uint8_t(coeffs_set_ ? 1 : 0));
  for (int a = 1; a <= ntypes_; ++a)
    for (int b = 1; b <= ntypes_; ++b) {
      w.put(epsilon_(std::size_t(a), std::size_t(b)));
      w.put(sigma_(std::size_t(a), std::size_t(b)));
      w.put(cut_(std::size_t(a), std::size_t(b)));
    }
  return true;
}

void PairLJCut::unpack_restart(io::BinaryReader& r) {
  cut_global_ = r.get<double>();
  const int ntypes = int(r.get<std::int32_t>());
  const bool coeffs_set = r.get<std::uint8_t>() != 0;
  allocate(ntypes);
  max_cut_ = 0.0;
  for (int a = 1; a <= ntypes; ++a)
    for (int b = 1; b <= ntypes; ++b) {
      const double eps = r.get<double>();
      const double sigma = r.get<double>();
      const double cut = r.get<double>();
      // set_coeff would re-mark coeffs_set_ and symmetrize; write the slots
      // directly so an (a,b)/(b,a) asymmetry never silently heals and the
      // unset-marker (eps == 0) survives for init()'s mixing pass.
      epsilon_(std::size_t(a), std::size_t(b)) = eps;
      sigma_(std::size_t(a), std::size_t(b)) = sigma;
      cut_(std::size_t(a), std::size_t(b)) = cut;
      cutsq_(std::size_t(a), std::size_t(b)) = cut * cut;
      lj1_(std::size_t(a), std::size_t(b)) = 48.0 * eps * std::pow(sigma, 12.0);
      lj2_(std::size_t(a), std::size_t(b)) = 24.0 * eps * std::pow(sigma, 6.0);
      lj3_(std::size_t(a), std::size_t(b)) = 4.0 * eps * std::pow(sigma, 12.0);
      lj4_(std::size_t(a), std::size_t(b)) = 4.0 * eps * std::pow(sigma, 6.0);
      max_cut_ = std::max(max_cut_, cut);
    }
  coeffs_set_ = coeffs_set;
}

void PairLJCut::init(Simulation& sim) {
  allocate(sim.atom.ntypes);
  require(coeffs_set_, "lj/cut: no pair_coeff given");
  // Geometric mixing for any unset cross terms (eps==0 marks unset).
  for (int a = 1; a <= ntypes_; ++a)
    for (int b = a + 1; b <= ntypes_; ++b) {
      if (epsilon_(std::size_t(a), std::size_t(b)) == 0.0 &&
          epsilon_(std::size_t(a), std::size_t(a)) > 0.0 &&
          epsilon_(std::size_t(b), std::size_t(b)) > 0.0) {
        const double eps = std::sqrt(epsilon_(std::size_t(a), std::size_t(a)) *
                                     epsilon_(std::size_t(b), std::size_t(b)));
        const double sig = 0.5 * (sigma_(std::size_t(a), std::size_t(a)) +
                                  sigma_(std::size_t(b), std::size_t(b)));
        set_coeff(a, b, eps, sig, cut_global_);
      }
    }
  // Recompute the global maximum cutoff over all set type pairs.
  max_cut_ = 0.0;
  for (int a = 1; a <= ntypes_; ++a)
    for (int b = 1; b <= ntypes_; ++b)
      max_cut_ = std::max(max_cut_, cut_(std::size_t(a), std::size_t(b)));
  require(max_cut_ > 0.0, "lj/cut: no positive cutoffs set");
}

void PairLJCut::compute(Simulation& sim, bool eflag) {
  reset_accumulators();
  Atom& atom = sim.atom;
  atom.sync<kk::Host>(X_MASK | TYPE_MASK);
  const NeighborList& list = sim.neighbor.list;
  const_cast<NeighborList&>(list).k_neighbors.sync<kk::Host>();
  const_cast<NeighborList&>(list).k_numneigh.sync<kk::Host>();

  const auto x = atom.k_x.h_view;
  auto f = atom.k_f.h_view;
  const auto type = atom.k_type.h_view;
  const auto neigh = list.k_neighbors.h_view;
  const auto numneigh = list.k_numneigh.h_view;
  const localint nlocal = atom.nlocal;
  const bool half = list.style == NeighStyle::Half;
  const bool newton = list.newton;

  for (localint i = 0; i < list.inum; ++i) {
    const double xi = x(std::size_t(i), 0);
    const double yi = x(std::size_t(i), 1);
    const double zi = x(std::size_t(i), 2);
    const int itype = type(std::size_t(i));
    double fxi = 0.0, fyi = 0.0, fzi = 0.0;
    const int jnum = numneigh(std::size_t(i));
    for (int jj = 0; jj < jnum; ++jj) {
      const int j = neigh(std::size_t(i), std::size_t(jj));
      const double dx = xi - x(std::size_t(j), 0);
      const double dy = yi - x(std::size_t(j), 1);
      const double dz = zi - x(std::size_t(j), 2);
      const double rsq = dx * dx + dy * dy + dz * dz;
      const int jtype = type(std::size_t(j));
      if (rsq >= cutsq_(std::size_t(itype), std::size_t(jtype))) continue;

      const double fpair = pair_force(rsq, lj1_(std::size_t(itype), std::size_t(jtype)),
                                      lj2_(std::size_t(itype), std::size_t(jtype)));
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
        const double e = pair_energy(rsq, lj3_(std::size_t(itype), std::size_t(jtype)),
                                     lj4_(std::size_t(itype), std::size_t(jtype)));
        const double factor =
            half ? ((j < nlocal || newton) ? 1.0 : 0.5) : 0.5;
        eng_vdwl += factor * e;
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

void register_pair_lj_cut() {
  StyleRegistry::instance().add_pair(
      "lj/cut", [](ExecSpaceKind) -> std::unique_ptr<Pair> {
        return std::make_unique<PairLJCut>();
      });
}

}  // namespace mlk
