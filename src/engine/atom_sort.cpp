#include "engine/atom_sort.hpp"

#include <algorithm>
#include <cmath>

#include "kokkos/profiling.hpp"
#include "util/error.hpp"

namespace mlk {

namespace {

struct SortGrid {
  double lo[3];
  double binsize[3];
  int nbin[3];

  SortGrid(const Domain& domain, double bin_width) {
    require(bin_width > 0.0, "atom sort: bin width must be positive");
    for (int d = 0; d < 3; ++d) {
      lo[d] = domain.sublo[d];
      const double span = domain.subhi[d] - domain.sublo[d];
      nbin[d] = std::max(1, int(span / bin_width));
      binsize[d] = span / nbin[d];
    }
  }

  // Bin-major key, z fastest — the same traversal order BinGrid::index uses,
  // so sorted atoms walk the neighbor bins near-sequentially.
  int key(const double* x) const {
    int b[3];
    for (int d = 0; d < 3; ++d) {
      b[d] = int((x[d] - lo[d]) / binsize[d]);
      b[d] = std::clamp(b[d], 0, nbin[d] - 1);
    }
    return (b[0] * nbin[1] + b[1]) * nbin[2] + b[2];
  }

  int nbins() const { return nbin[0] * nbin[1] * nbin[2]; }
};

std::vector<int> bin_keys(const Atom& atom, const SortGrid& grid) {
  const auto x = atom.k_x.h_view;
  std::vector<int> keys(std::size_t(atom.nlocal));
  for (localint i = 0; i < atom.nlocal; ++i) {
    const double xi[3] = {x(std::size_t(i), 0), x(std::size_t(i), 1),
                          x(std::size_t(i), 2)};
    keys[std::size_t(i)] = grid.key(xi);
  }
  return keys;
}

}  // namespace

std::vector<localint> AtomSorter::permutation_scalar(const Atom& atom,
                                                     const Domain& domain,
                                                     double bin_width) {
  const SortGrid grid(domain, bin_width);
  const auto keys = bin_keys(atom, grid);
  std::vector<localint> perm(std::size_t(atom.nlocal));
  for (localint i = 0; i < atom.nlocal; ++i) perm[std::size_t(i)] = i;
  std::stable_sort(perm.begin(), perm.end(), [&](localint a, localint b) {
    return keys[std::size_t(a)] < keys[std::size_t(b)];
  });
  return perm;
}

std::vector<localint> AtomSorter::permutation_binned(const Atom& atom,
                                                     const Domain& domain,
                                                     double bin_width) {
  const SortGrid grid(domain, bin_width);
  const auto keys = bin_keys(atom, grid);
  const std::size_t nbins = std::size_t(grid.nbins());

  // Counting sort: per-bin counts, exclusive scan into bin offsets, then an
  // in-index-order fill — stable within a bin by construction, so the result
  // matches the scalar stable_sort bitwise.
  std::vector<localint> count(nbins, 0);
  for (int k : keys) ++count[std::size_t(k)];
  std::vector<localint> offset(nbins, 0);
  localint run = 0;
  for (std::size_t b = 0; b < nbins; ++b) {
    offset[b] = run;
    run += count[b];
  }
  std::vector<localint> perm(std::size_t(atom.nlocal));
  for (localint i = 0; i < atom.nlocal; ++i)
    perm[std::size_t(offset[std::size_t(keys[std::size_t(i)])]++)] = i;
  return perm;
}

bool AtomSorter::maybe_sort(Atom& atom, const Domain& domain,
                            double bin_width) {
  if (every <= 0) return false;
  if (++builds_since_sort < every) return false;
  builds_since_sort = 0;

  kk::profiling::ScopedRegion region("AtomSorter::sort");
  atom.sync<kk::Host>(X_MASK);
  atom.reorder_owned(permutation_binned(atom, domain, bin_width));
  ++nsorts;
  return true;
}

}  // namespace mlk
