#include "reaxff/nonbonded.hpp"

#include <cmath>

#include "kokkos/core.hpp"
#include "util/error.hpp"

namespace mlk::reaxff {

template <class Space>
EV compute_vdw(const ReaxParams& p, Atom& atom, const NeighborList& list,
               bool eflag) {
  require(list.style == NeighStyle::Full, "reaxff vdW needs a full list");
  atom.sync<Space>(X_MASK | F_MASK);
  auto& l = const_cast<NeighborList&>(list);
  l.k_neighbors.sync<Space>();
  l.k_numneigh.sync<Space>();
  auto x = atom.k_x.view<Space>();
  auto f = atom.k_f.view<Space>();
  auto neigh = l.k_neighbors.view<Space>();
  auto numneigh = l.k_numneigh.view<Space>();
  const ReaxParams params = p;
  const double cutsq = p.rcut_nonb * p.rcut_nonb;

  EV total;
  kk::parallel_reduce(
      "ReaxFF::VdW", kk::RangePolicy<Space>(0, std::size_t(list.inum)),
      [=](std::size_t i, EV& ev) {
        double fx = 0.0, fy = 0.0, fz = 0.0;
        const int jnum = numneigh(i);
        for (int jj = 0; jj < jnum; ++jj) {
          const int j = neigh(i, std::size_t(jj));
          const double dx = x(i, 0) - x(std::size_t(j), 0);
          const double dy = x(i, 1) - x(std::size_t(j), 1);
          const double dz = x(i, 2) - x(std::size_t(j), 2);
          const double rsq = dx * dx + dy * dy + dz * dz;
          if (rsq >= cutsq || rsq < 1e-20) continue;
          const double r = std::sqrt(rsq);
          const double tap = taper7(r, params.rcut_nonb);
          const double dtap = dtaper7(r, params.rcut_nonb);
          const double em = morse_energy(params, r);
          const double dem = dmorse_energy(params, r);
          // fpair = -(dE/dr)/r; full-list redundant compute, force on i only.
          const double fpair = -(dtap * em + tap * dem) / r;
          fx += dx * fpair;
          fy += dy * fpair;
          fz += dz * fpair;
          if (eflag) {
            ev.evdwl += 0.5 * tap * em;
            ev.v[0] += 0.5 * dx * dx * fpair;
            ev.v[1] += 0.5 * dy * dy * fpair;
            ev.v[2] += 0.5 * dz * dz * fpair;
            ev.v[3] += 0.5 * dx * dy * fpair;
            ev.v[4] += 0.5 * dx * dz * fpair;
            ev.v[5] += 0.5 * dy * dz * fpair;
          }
        }
        f(i, 0) += fx;
        f(i, 1) += fy;
        f(i, 2) += fz;
      },
      total);
  atom.modified<Space>(F_MASK);
  return total;
}

template EV compute_vdw<kk::Host>(const ReaxParams&, Atom&,
                                  const NeighborList&, bool);
template EV compute_vdw<kk::Device>(const ReaxParams&, Atom&,
                                    const NeighborList&, bool);

}  // namespace mlk::reaxff
