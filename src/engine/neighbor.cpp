#include "engine/neighbor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "kokkos/core.hpp"
#include "kokkos/team.hpp"
#include "util/error.hpp"

namespace mlk {

bigint NeighborList::total_pairs() const {
  auto& num = const_cast<NeighborList*>(this)->k_numneigh;
  num.sync<kk::Host>();
  bigint total = 0;
  for (localint i = 0; i < inum; ++i)
    total += num.h_view(std::size_t(i));
  return total;
}

double NeighborList::avg_neighbors() const {
  return inum == 0 ? 0.0 : double(total_pairs()) / double(inum);
}

int BinGrid::coord_to_bin(const double* x) const {
  int b[3];
  for (int d = 0; d < 3; ++d) {
    b[d] = int((x[d] - lo[d]) / binsize[d]);
    b[d] = std::clamp(b[d], 0, nbin[d] - 1);
  }
  return index(b[0], b[1], b[2]);
}

void BinGrid::build(const Atom& atom, const Domain& domain, double cutghost) {
  for (int d = 0; d < 3; ++d) {
    lo[d] = domain.sublo[d] - cutghost;
    hi[d] = domain.subhi[d] + cutghost;
    const double span = hi[d] - lo[d];
    nbin[d] = std::max(1, int(span / cutghost));
    binsize[d] = span / nbin[d];
  }
  bins.assign(std::size_t(nbin[0]) * nbin[1] * nbin[2], {});
  const auto x = atom.k_x.h_view;
  for (localint i = 0; i < atom.nall(); ++i) {
    const double xi[3] = {x(std::size_t(i), 0), x(std::size_t(i), 1),
                          x(std::size_t(i), 2)};
    bins[std::size_t(coord_to_bin(xi))].push_back(i);
  }
}

void Neighbor::build(const Atom& atom, const Domain& domain) {
  if (execution_space == ExecSpaceKind::Device)
    build_in<kk::Device>(atom, domain);
  else
    build_in<kk::Host>(atom, domain);
  ++nbuilds;
  if (canonical) canonicalize_rows(atom);
}

void Neighbor::canonicalize_rows(const Atom& atom) {
  if (execution_space == ExecSpaceKind::Device)
    canonicalize_rows_in<kk::Device>(atom);
  else
    canonicalize_rows_in<kk::Host>(atom);
}

template <class Space>
void Neighbor::canonicalize_rows_in(const Atom& atom) {
  // Host and Device builds emit bitwise-identical tables, so canonicalizing
  // after either yields the same rows. Sorting is by (tag, x, y, z) of the
  // neighbor: tags are storage-order invariant, and the coordinates break
  // ties between distinct periodic images of the same tag (their positions
  // differ by box lengths), so the order is total over a row's entries and
  // any sort gives the same row. Each row is sorted in the space that built
  // it: the table never crosses host<->device. The interior/boundary
  // partition is unaffected — it lists row indices, not positions within
  // rows.
  const_cast<Atom&>(atom).sync<Space>(X_MASK | TAG_MASK);
  const auto neigh = list.k_neighbors.view<Space>();
  const auto num = list.k_numneigh.view<Space>();
  const auto tag = atom.k_tag.view<Space>();
  const auto x = atom.k_x.view<Space>();
  const auto before = [=](int a, int b) {
    const std::size_t ja = std::size_t(a), jb = std::size_t(b);
    if (tag(ja) != tag(jb)) return tag(ja) < tag(jb);
    if (x(ja, 0) != x(jb, 0)) return x(ja, 0) < x(jb, 0);
    if (x(ja, 1) != x(jb, 1)) return x(ja, 1) < x(jb, 1);
    return x(ja, 2) < x(jb, 2);
  };
  // One team per row: stage the row in team scratch, sort it there, and
  // write it back (an insertion sort on the strided row itself measured
  // slower than the host sort at one pool thread).
  const std::size_t cap = neigh.extent(1);
  kk::parallel_for(
      "Neighbor::canonicalize_rows",
      kk::TeamPolicy<Space>(std::size_t(list.inum + list.gnum), 1)
          .set_scratch_size(cap * sizeof(int)),
      [=](const kk::TeamMember& m) {
        const std::size_t i = m.league_rank();
        const std::size_t nn = std::size_t(num(i));
        int* row = m.team_scratch<int>(cap);
        for (std::size_t k = 0; k < nn; ++k) row[k] = neigh(i, k);
        // Through a reference: std::sort copies its comparator, and each
        // copy of `before` would copy its views' shared_ptrs.
        std::sort(row, row + nn, std::cref(before));
        for (std::size_t k = 0; k < nn; ++k) neigh(i, k) = row[k];
      });
  list.k_neighbors.modify<Space>();
}

template <class Space>
void Neighbor::build_in(const Atom& atom, const Domain& domain) {
  require(cutoff > 0.0, "neighbor cutoff not set");
  require(!ghost_rows || style == NeighStyle::Full,
          "ghost rows require a full neighbor list");
  const double cutneigh = cutghost();
  const double cutsq = cutneigh * cutneigh;

  // Host-side binning (cheap, O(N)) staged into views of the build space.
  BinGrid grid;
  grid.build(atom, domain, cutneigh);
  int max_per_bin = 1;
  for (const auto& b : grid.bins)
    max_per_bin = std::max(max_per_bin, int(b.size()));
  const std::size_t nbins = grid.bins.size();

  kk::View2D<int, Space> bin_atoms("neigh::bin_atoms", nbins,
                                   std::size_t(max_per_bin));
  kk::View1D<int, Space> bin_count("neigh::bin_count", nbins);
  for (std::size_t b = 0; b < nbins; ++b) {
    bin_count(b) = int(grid.bins[b].size());
    for (std::size_t k = 0; k < grid.bins[b].size(); ++k)
      bin_atoms(b, k) = grid.bins[b][k];
  }

  const_cast<Atom&>(atom).sync<Space>(X_MASK);
  auto x = atom.k_x.view<Space>();
  const localint nlocal = atom.nlocal;
  const localint nrows = ghost_rows ? atom.nall() : nlocal;
  const PairAcceptance accept(nlocal, style, newton);

  const int nbx = grid.nbin[0], nby = grid.nbin[1], nbz = grid.nbin[2];
  const double glo0 = grid.lo[0], glo1 = grid.lo[1], glo2 = grid.lo[2];
  const double bs0 = grid.binsize[0], bs1 = grid.binsize[1],
               bs2 = grid.binsize[2];

  // Stencil walk: bins in (bx, by, bz) ascending order, atoms in bin
  // insertion order. The traversal does not depend on Space, so a Host and
  // a Device build list the same neighbors in the same order in every row.
  auto visit = [=](localint i, auto&& fn) {
    const double xi0 = x(std::size_t(i), 0);
    const double xi1 = x(std::size_t(i), 1);
    const double xi2 = x(std::size_t(i), 2);
    int bc0 = std::clamp(int((xi0 - glo0) / bs0), 0, nbx - 1);
    int bc1 = std::clamp(int((xi1 - glo1) / bs1), 0, nby - 1);
    int bc2 = std::clamp(int((xi2 - glo2) / bs2), 0, nbz - 1);
    for (int bx = std::max(0, bc0 - 1); bx <= std::min(nbx - 1, bc0 + 1); ++bx)
      for (int by = std::max(0, bc1 - 1); by <= std::min(nby - 1, bc1 + 1);
           ++by)
        for (int bz = std::max(0, bc2 - 1); bz <= std::min(nbz - 1, bc2 + 1);
             ++bz) {
          const std::size_t bin = std::size_t((bx * nby + by) * nbz + bz);
          const int cnt = bin_count(bin);
          for (int k = 0; k < cnt; ++k) {
            const int j = bin_atoms(bin, std::size_t(k));
            if (!accept(x, localint(i), localint(j))) continue;
            const double dx = xi0 - x(std::size_t(j), 0);
            const double dy = xi1 - x(std::size_t(j), 1);
            const double dz = xi2 - x(std::size_t(j), 2);
            if (dx * dx + dy * dy + dz * dz <= cutsq) fn(j);
          }
        }
  };

  list.style = style;
  list.newton = newton;
  list.inum = nlocal;
  list.gnum = nrows - nlocal;

  const std::size_t nrows_alloc = std::size_t(std::max<localint>(nrows, 1));
  list.k_numneigh.realloc(nrows_alloc);
  auto num = list.k_numneigh.view<Space>();

  // Resize-and-retry: one traversal fills rows into a guessed-capacity
  // table while counting the *full* row length; writes past capacity are
  // dropped. A max-reduction then detects overflow, and only an overflowing
  // build regrows the table (with headroom) and repeats the pass. The
  // high-water capacity survives in maxneighs_hint, so repeated rebuilds of
  // a quasi-stationary system never retry.
  int capacity = maxneighs_hint;
  if (capacity <= 0) {
    // Cold start: ideal-gas estimate from the local density of the
    // extended (sub-box + ghost margin) region, plus headroom.
    double vol = 1.0;
    for (int d = 0; d < 3; ++d) vol *= grid.hi[d] - grid.lo[d];
    const double rho = vol > 0.0 ? double(atom.nall()) / vol : 0.0;
    constexpr double kPi = 3.14159265358979323846;
    const double est = rho * 4.0 / 3.0 * kPi * cutneigh * cutneigh * cutneigh;
    capacity = std::max(8, int(est * 1.2) + 1);
  }
  for (;;) {
    list.k_neighbors.realloc(nrows_alloc, std::size_t(capacity));
    auto neigh = list.k_neighbors.view<Space>();
    const int cap = capacity;
    kk::parallel_for("Neighbor::fill",
                     kk::RangePolicy<Space>(0, std::size_t(nrows)),
                     [=](std::size_t i) {
                       int c = 0;
                       visit(localint(i), [&](int j) {
                         if (c < cap) neigh(i, std::size_t(c)) = j;
                         ++c;
                       });
                       num(i) = c;  // full count: overflow detector
                     });
    int maxn = 0;
    kk::parallel_reduce_impl(
        "Neighbor::overflow_check",
        kk::RangePolicy<Space>(0, std::size_t(nrows)),
        [=](std::size_t i, int& m) {
          if (num(i) > m) m = num(i);
        },
        kk::Max<int>(maxn));
    if (maxn <= capacity) break;
    ++nretries;
    // ~12% headroom so steady-state density fluctuations stay under the
    // high-water mark instead of forcing a retry every few rebuilds.
    capacity = maxn + (maxn >> 3) + 1;
  }
  list.maxneighs = capacity;
  maxneighs_hint = capacity;
  list.k_neighbors.modify<Space>();
  list.k_numneigh.modify<Space>();

  // Interior/boundary partition of the owned rows, enabling the overlapped
  // force phase to start interior work before the halo exchange lands: flag
  // ghost-free rows, then one parallel_scan packs interior rows (scan rank)
  // and boundary rows (row index minus scan rank), both in ascending order.
  const std::size_t nloc_alloc = std::size_t(std::max<localint>(nlocal, 1));
  list.k_interior.realloc(nloc_alloc);
  list.k_boundary.realloc(nloc_alloc);
  auto neigh = list.k_neighbors.view<Space>();
  kk::View1D<int, Space> ghost_free("neigh::ghost_free", nloc_alloc);
  kk::parallel_for("Neighbor::flag_interior",
                   kk::RangePolicy<Space>(0, std::size_t(nlocal)),
                   [=](std::size_t i) {
                     int flag = 1;
                     const int nn = num(i);
                     for (int jj = 0; jj < nn; ++jj) {
                       if (neigh(i, std::size_t(jj)) >= nlocal) {
                         flag = 0;
                         break;
                       }
                     }
                     ghost_free(i) = flag;
                   });
  auto interior = list.k_interior.view<Space>();
  auto boundary = list.k_boundary.view<Space>();
  int ninterior = 0;
  kk::parallel_scan(
      "Neighbor::partition", kk::RangePolicy<Space>(0, std::size_t(nlocal)),
      [=](std::size_t i, int& update, bool final) {
        const int f = ghost_free(i);
        if (final) {
          if (f)
            interior(std::size_t(update)) = int(i);
          else
            boundary(i - std::size_t(update)) = int(i);
        }
        update += f;
      },
      ninterior);
  list.ninterior = ninterior;
  list.nboundary = nlocal - ninterior;
  list.k_interior.modify<Space>();
  list.k_boundary.modify<Space>();
}

bool Neighbor::wants_rebuild(bigint step, Atom& atom) const {
  const bigint ago = step - last_build;
  if (ago < bigint(delay)) return false;
  if (ago % bigint(std::max(1, every)) != 0) return false;
  if (!check) return true;
  return check_distance(atom);
}

void Neighbor::note_dangerous(bigint step) {
  if (!check) return;
  // Triggered on the very first step the settings allowed a rebuild: the
  // atoms were probably past the trigger earlier, while forces were still
  // being computed from the stale list.
  const bigint earliest = std::max<bigint>(std::max(1, every), delay);
  if (step - last_build == earliest) ++ndanger;
}

bool Neighbor::check_distance(Atom& atom) const {
  return execution_space == ExecSpaceKind::Device
             ? check_distance_in<kk::Device>(atom)
             : check_distance_in<kk::Host>(atom);
}

template <class Space>
bool Neighbor::check_distance_in(Atom& atom) const {
  if (xhold_.extent(0) != std::size_t(atom.nlocal)) return true;
  // The integrator may have moved x in either space: test the current
  // positions, in the space that holds xhold.
  atom.sync<Space>(X_MASK);
  const auto x = atom.k_x.view<Space>();
  const auto xhold = xhold_.view<Space>();
  double maxsq = 0.0;
  kk::parallel_reduce(
      "Neighbor::check_distance",
      kk::RangePolicy<Space>(0, std::size_t(atom.nlocal)),
      [=](std::size_t i, double& m) {
        double rsq = 0.0;
        for (std::size_t d = 0; d < 3; ++d) {
          const double dd = x(i, d) - xhold(i, d);
          rsq += dd * dd;
        }
        if (rsq > m) m = rsq;
      },
      kk::Max<double>(maxsq));
  return maxsq > 0.25 * skin * skin;  // (skin/2)^2
}

void Neighbor::store_build_positions(Atom& atom) {
  // Only the distance check reads xhold. With check off, skip the copy (no
  // launch per rebuild) and drop the old basis, so a later `check yes`
  // rebuilds at its first allowed step.
  if (!check) {
    xhold_ = {};
    return;
  }
  if (execution_space == ExecSpaceKind::Device)
    store_build_positions_in<kk::Device>(atom);
  else
    store_build_positions_in<kk::Host>(atom);
}

template <class Space>
void Neighbor::store_build_positions_in(Atom& atom) {
  const std::size_t n = std::size_t(atom.nlocal);
  if (xhold_.extent(0) != n) xhold_ = kk::DualView<double, 2>("xhold", n, 3);
  atom.sync<Space>(X_MASK);
  const auto x = atom.k_x.view<Space>();
  const auto xhold = xhold_.view<Space>();
  kk::parallel_for("Neighbor::store_build_positions",
                   kk::RangePolicy<Space>(0, n), [=](std::size_t i) {
                     for (std::size_t d = 0; d < 3; ++d) xhold(i, d) = x(i, d);
                   });
  xhold_.modify<Space>();
}

NeighborList brute_force_list(const Atom& atom, const Domain& /*domain*/,
                              double cutoff, NeighStyle style, bool newton,
                              localint nlocal, bool ghost_rows) {
  const auto x = atom.k_x.h_view;
  const double cutsq = cutoff * cutoff;
  const PairAcceptance accept(nlocal, style, newton);
  const localint nrows = ghost_rows ? atom.nall() : nlocal;
  NeighborList out;
  out.style = style;
  out.newton = newton;
  out.inum = nlocal;
  out.gnum = nrows - nlocal;

  std::vector<std::vector<int>> rows{std::size_t(std::max<localint>(nrows, 1))};
  for (localint i = 0; i < nrows; ++i) {
    for (localint j = 0; j < atom.nall(); ++j) {
      if (!accept(x, i, j)) continue;
      const double dx = x(std::size_t(i), 0) - x(std::size_t(j), 0);
      const double dy = x(std::size_t(i), 1) - x(std::size_t(j), 1);
      const double dz = x(std::size_t(i), 2) - x(std::size_t(j), 2);
      if (dx * dx + dy * dy + dz * dz <= cutsq)
        rows[std::size_t(i)].push_back(j);
    }
  }
  // maxneighs is the true max row length (exact fit, no floor); the table
  // itself still allocates at least one column.
  int maxn = 0;
  for (const auto& r : rows) maxn = std::max(maxn, int(r.size()));
  out.maxneighs = maxn;
  out.k_neighbors.realloc(std::size_t(std::max<localint>(nrows, 1)),
                          std::size_t(std::max(maxn, 1)));
  out.k_numneigh.realloc(std::size_t(std::max<localint>(nrows, 1)));
  for (localint i = 0; i < nrows; ++i) {
    out.k_numneigh.h_view(std::size_t(i)) = int(rows[std::size_t(i)].size());
    for (std::size_t c = 0; c < rows[std::size_t(i)].size(); ++c)
      out.k_neighbors.h_view(std::size_t(i), c) = rows[std::size_t(i)][c];
  }
  out.k_neighbors.modify<kk::Host>();
  out.k_numneigh.modify<kk::Host>();
  return out;
}

}  // namespace mlk
