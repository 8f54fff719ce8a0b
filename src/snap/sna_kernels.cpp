#include "snap/sna_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "pair/pair_compute_kokkos.hpp"  // EV reduction type
#include "snap/sna_recursion.hpp"
#include "util/error.hpp"

namespace mlk::snap {

template <class Space>
SNAKokkos<Space>::SNAKokkos(const SnaParams& p) : params_(p) {
  require(p.rcut > p.rmin0, "SNAKokkos: rcut must exceed rmin0");
  idx_.build(p.twojmax);
}

namespace {

// Every stage runs W lanes at the build's native pack width.
constexpr int W = kk::native_simd_width;
using pd = kk::simd<double, W>;

/// Staged neighbors jj0..jj0+W-1 of atom i, one per lane, with their
/// Cayley-Klein z0 (and dz0/dr). Lanes past the row's n neighbors repeat its
/// last one: they compute on valid data, and the kernels drop them.
struct NeighborLanes {
  pd x, y, z, r, z0, dz0dr;
  int count;  // valid lanes

  template <class DR>
  NeighborLanes(const SnaParams& p, const DR& dr, std::size_t i, int jj0,
                int n, bool with_dz0dr)
      : count(std::min(W, n - jj0)) {
    const auto at = [&](int l, std::size_t c) {
      return dr(i, std::size_t(std::min(jj0 + l, n - 1)), c);
    };
    x = pd::gather([&](int l) { return at(l, 0); });
    y = pd::gather([&](int l) { return at(l, 1); });
    z = pd::gather([&](int l) { return at(l, 2); });
    r = pd::gather([&](int l) { return at(l, 3); });
    double lz0[W], ldz0[W];
    for (int l = 0; l < W; ++l)
      cayley_klein(p.rfac0, p.rmin0, p.rcut, r[l], &lz0[l],
                   with_dz0dr ? &ldz0[l] : nullptr);
    z0 = pd::load(lz0);
    if (with_dz0dr) dz0dr = pd::load(ldz0);
  }
};

/// The U rows of atoms i0..i0+W-1 as lane packs; lanes past natom repeat
/// the last atom.
template <class V>
void load_atom_rows(const V& utr, const V& uti, std::size_t i0,
                    std::size_t natom, int iumax, pd* ur, pd* ui) {
  const auto row = [&](int l) {
    return std::min(i0 + std::size_t(l), natom - 1);
  };
  for (int k = 0; k < iumax; ++k) {
    ur[k] = pd::gather([&](int l) { return utr(row(l), std::size_t(k)); });
    ui[k] = pd::gather([&](int l) { return uti(row(l), std::size_t(k)); });
  }
}

/// Row i of a 2-D View, indexable like the arrays SNA passes the templates.
template <class V>
struct ViewRow {
  const V& v;
  std::size_t i;
  double operator[](int k) const { return v(i, std::size_t(k)); }
};

template <class V>
ViewRow<V> row_of(const V& v, std::size_t i) {
  return {v, i};
}

}  // namespace

template <class Space>
void SNAKokkos<Space>::stage_neighbors(Atom& atom, const NeighborList& list) {
  require(list.style == NeighStyle::Full,
          "SNAKokkos: requires a full neighbor list");
  atom.sync<Space>(X_MASK);
  auto& l = const_cast<NeighborList&>(list);
  l.k_neighbors.sync<Space>();
  l.k_numneigh.sync<Space>();
  auto x = atom.k_x.view<Space>();
  auto neigh = l.k_neighbors.view<Space>();
  auto numneigh = l.k_numneigh.view<Space>();

  natom = list.inum;
  const double rcutsq = params_.rcut * params_.rcut;
  // The staged views persist across force calls and grow only when natom
  // or maxneigh does.
  const std::size_t na = std::size_t(std::max<localint>(natom, 1));
  if (nneigh.extent(0) < na) nneigh = kk::View1D<int, Space>("snap::nneigh", na);
  auto nn = nneigh;

  // Calls f(j, dx, dy, dz, rsq) for each neighbor of atom i inside the SNAP
  // cutoff, in list order.
  const auto for_each_in_cutoff = [=](std::size_t i, const auto& f) {
    const int jnum = numneigh(i);
    for (int jj = 0; jj < jnum; ++jj) {
      const int j = neigh(i, std::size_t(jj));
      const double dx = x(std::size_t(j), 0) - x(i, 0);
      const double dy = x(std::size_t(j), 1) - x(i, 1);
      const double dz = x(std::size_t(j), 2) - x(i, 2);
      const double rsq = dx * dx + dy * dy + dz * dz;
      if (in_snap_cutoff(rsq, rcutsq)) f(j, dx, dy, dz, rsq);
    }
  };

  // Count pass (divergent, cheap) -> max reduction for table width.
  kk::parallel_for("SNAP::stage_count",
                   kk::RangePolicy<Space>(0, std::size_t(natom)),
                   [=](std::size_t i) {
                     int c = 0;
                     for_each_in_cutoff(i, [&](int, double, double, double,
                                               double) { ++c; });
                     nn(i) = c;
                   });
  int maxn = 1;
  kk::parallel_reduce_impl(
      "SNAP::stage_max", kk::RangePolicy<Space>(0, std::size_t(natom)),
      [=](std::size_t i, int& m) {
        if (nn(i) > m) m = nn(i);
      },
      kk::Max<int>(maxn));
  maxneigh = std::max(maxn, 1);

  const std::size_t nmax =
      std::max(std::size_t(maxneigh), neigh_dr.extent(1));
  if (neigh_dr.extent(0) < na || neigh_dr.extent(1) < nmax) {
    neigh_dr = kk::View3D<double, Space>("snap::neigh_dr", na, nmax, 4);
    neigh_j = kk::View2D<int, Space>("snap::neigh_j", na, nmax);
  }
  auto dr = neigh_dr;
  auto nj = neigh_j;

  // Fill pass: compressed per-atom tables (fully convergent afterwards).
  kk::parallel_for(
      "SNAP::stage_fill", kk::RangePolicy<Space>(0, std::size_t(natom)),
      [=](std::size_t i) {
        std::size_t c = 0;
        for_each_in_cutoff(
            i, [&](int j, double dx, double dy, double dz, double rsq) {
              dr(i, c, 0) = dx;
              dr(i, c, 1) = dy;
              dr(i, c, 2) = dz;
              dr(i, c, 3) = std::sqrt(rsq);
              nj(i, c) = j;
              ++c;
            });
      });

  if (utot_r.extent(0) < na) {
    const std::size_t iu = std::size_t(idx_.idxu_max);
    utot_r = kk::View2D<double, Space>("snap::utot_r", na, iu);
    utot_i = kk::View2D<double, Space>("snap::utot_i", na, iu);
    ylist_r = kk::View2D<double, Space>("snap::ylist_r", na, iu);
    ylist_i = kk::View2D<double, Space>("snap::ylist_i", na, iu);
  }
}

template <class Space>
void SNAKokkos<Space>::compute_ui() {
  const SnaIndexes* idx = &idx_;
  const SnaParams p = params_;
  auto utr = utot_r;
  auto uti = utot_i;
  auto dr = neigh_dr;
  auto nn = nneigh;
  const int iumax = idx_.idxu_max;

  // One team per atom owns its U row, so the row takes plain adds: it starts
  // from the self term in scratch, the U recursion runs for W neighbors at a
  // time, one per lane, each neighbor's switched U is added in neighbor
  // order (SNA's order), and the row is written once.
  const std::size_t scratch =
      std::size_t(iumax) * (2 * sizeof(pd) + 2 * sizeof(double));
  auto policy = kk::TeamPolicy<Space>(std::size_t(natom), 1, W)
                    .set_scratch_size(scratch);
  kk::parallel_for("SNAP::ComputeUi", policy, [=](const kk::TeamMember& m) {
    const std::size_t i = m.league_rank();
    pd* ur = m.team_scratch<pd>(std::size_t(iumax));
    pd* ui = m.team_scratch<pd>(std::size_t(iumax));
    double* row_r = m.team_scratch<double>(std::size_t(iumax));
    double* row_i = m.team_scratch<double>(std::size_t(iumax));
    u_self_term(*idx, p.wself, row_r, row_i);

    const int n = nn(i);
    for (int jj0 = 0; jj0 < n; jj0 += W) {
      const NeighborLanes nb(p, dr, i, jj0, n, false);
      compute_u_lanes(*idx, nb.x, nb.y, nb.z, nb.z0, nb.r, ur, ui);
      for (int l = 0; l < nb.count; ++l) {
        const double s = switching(p, nb.r[l]);
        for (int k = 0; k < iumax; ++k) {
          row_r[k] += s * ur[k][l];
          row_i[k] += s * ui[k][l];
        }
      }
    }
    for (int k = 0; k < iumax; ++k) {
      utr(i, std::size_t(k)) = row_r[k];
      uti(i, std::size_t(k)) = row_i[k];
    }
  });
}

template <class Space>
double SNAKokkos<Space>::compute_zi_bi_energy(const double* beta) {
  const SnaIndexes* idx = &idx_;
  const std::size_t na = std::size_t(std::max<localint>(natom, 1));
  if (!zlist_r.is_allocated() || zlist_r.extent(0) < na) {
    zlist_r = kk::View2D<double, Space>("snap::zlist_r", na,
                                        std::size_t(idx_.idxz_max));
    zlist_i = kk::View2D<double, Space>("snap::zlist_i", na,
                                        std::size_t(idx_.idxz_max));
    blist = kk::View2D<double, Space>("snap::blist", na,
                                      std::size_t(idx_.idxb_max));
  }
  auto utr = utot_r;
  auto uti = utot_i;
  auto zr = zlist_r;
  auto zi = zlist_i;
  auto bl = blist;
  const int iumax = idx_.idxu_max;
  const std::size_t na_sz = std::size_t(natom);

  // Z: one team per block of W atoms, lanes over atoms (the §4.3.2
  // batching axis). Every lane walks the same flat index sequence through
  // its own U row, staged as packs in team scratch.
  auto policy = kk::TeamPolicy<Space>((na_sz + W - 1) / W, 1, W)
                    .set_scratch_size(std::size_t(iumax) * 2 * sizeof(pd));
  kk::parallel_for("SNAP::ComputeZi", policy, [=](const kk::TeamMember& m) {
    const std::size_t i0 = m.league_rank() * W;
    const int nlane = int(std::min<std::size_t>(W, na_sz - i0));
    pd* ur = m.team_scratch<pd>(std::size_t(iumax));
    pd* ui = m.team_scratch<pd>(std::size_t(iumax));
    load_atom_rows(utr, uti, i0, na_sz, iumax, ur, ui);
    for (int jjz = 0; jjz < idx->idxz_max; ++jjz) {
      pd z_r, z_i;
      compute_z_entry(*idx, idx->idxz[std::size_t(jjz)], ur, ui, &z_r, &z_i);
      for (int l = 0; l < nlane; ++l) {
        zr(i0 + std::size_t(l), std::size_t(jjz)) = z_r[l];
        zi(i0 + std::size_t(l), std::size_t(jjz)) = z_i[l];
      }
    }
  });

  // B, and the energy summed per atom and then over atoms (SNA's order).
  double energy = 0.0;
  kk::parallel_reduce(
      "SNAP::ComputeBi", kk::RangePolicy<Space>(0, std::size_t(natom)),
      [=](std::size_t i, double& esum) {
        double ei = 0.0;
        for (int jjb = 0; jjb < idx->idxb_max; ++jjb) {
          const double b = compute_b_entry(
              *idx, idx->idxb[std::size_t(jjb)], row_of(utr, i),
              row_of(uti, i), row_of(zr, i), row_of(zi, i));
          bl(i, std::size_t(jjb)) = b;
          ei += beta[jjb] * b;
        }
        esum += ei;
      },
      energy);
  return energy;
}

template <class Space>
void SNAKokkos<Space>::compute_yi(const double* beta) {
  const SnaIndexes* idx = &idx_;
  auto utr = utot_r;
  auto uti = utot_i;
  auto yr = ylist_r;
  auto yi = ylist_i;
  const int iumax = idx_.idxu_max;
  const std::size_t na_sz = std::size_t(natom);

  // The Zi atom blocks, accumulating beta-weighted Z into Y instead of
  // storing it. A block owns its W Y rows outright: it zeroes them and adds
  // in ascending flat-Z order, without atomics.
  auto policy = kk::TeamPolicy<Space>((na_sz + W - 1) / W, 1, W)
                    .set_scratch_size(std::size_t(iumax) * 4 * sizeof(pd));
  kk::parallel_for("SNAP::ComputeYi", policy, [=](const kk::TeamMember& m) {
    const std::size_t i0 = m.league_rank() * W;
    const int nlane = int(std::min<std::size_t>(W, na_sz - i0));
    pd* ur = m.team_scratch<pd>(std::size_t(iumax));
    pd* ui = m.team_scratch<pd>(std::size_t(iumax));
    pd* y_r = m.team_scratch<pd>(std::size_t(iumax));
    pd* y_i = m.team_scratch<pd>(std::size_t(iumax));
    load_atom_rows(utr, uti, i0, na_sz, iumax, ur, ui);
    for (int k = 0; k < iumax; ++k) y_r[k] = y_i[k] = pd(0.0);
    for (const auto& e : idx->idxz)
      add_y_entry(*idx, e, beta, ur, ui, y_r, y_i);
    for (int l = 0; l < nlane; ++l)
      for (int k = 0; k < iumax; ++k) {
        yr(i0 + std::size_t(l), std::size_t(k)) = y_r[k][l];
        yi(i0 + std::size_t(l), std::size_t(k)) = y_i[k][l];
      }
  });
}

template <class Space>
void SNAKokkos<Space>::compute_fused_deidrj(Atom& atom, double virial_out[6]) {
  const SnaIndexes* idx = &idx_;
  const SnaParams p = params_;
  atom.sync<Space>(F_MASK);
  auto f = atom.k_f.view<Space>();
  auto yr = ylist_r;
  auto yi = ylist_i;
  auto drv = neigh_dr;
  auto njv = neigh_j;
  auto nn = nneigh;
  const int iumax = idx_.idxu_max;

  // One team per (atom, chunk of W neighbors): the fused dU recursion over
  // all three directions with one neighbor per lane, the y·dU contraction
  // per lane (Y broadcast: every lane is a neighbor of atom i), then the
  // force and virial updates lane by lane in neighbor order
  // (ComputeFusedDeidrj, Table 2).
  const std::size_t nchunk = std::size_t((maxneigh + W - 1) / W);
  const std::size_t league = std::size_t(natom) * nchunk;
  auto policy = kk::TeamPolicy<Space>(league, 1, W)
                    .set_scratch_size(std::size_t(iumax) * 8 * sizeof(pd));

  EV total;
  kk::parallel_reduce(
      "SNAP::ComputeFusedDeidrj", policy,
      [=](const kk::TeamMember& m, EV& ev) {
        const std::size_t i = m.league_rank() / nchunk;
        const int jj0 = int(m.league_rank() % nchunk) * W;
        const int n = nn(i);
        if (jj0 >= n) return;

        pd* ur = m.team_scratch<pd>(std::size_t(iumax));
        pd* ui = m.team_scratch<pd>(std::size_t(iumax));
        pd* dur[3];
        pd* dui[3];
        for (int k = 0; k < 3; ++k) {
          dur[k] = m.team_scratch<pd>(std::size_t(iumax));
          dui[k] = m.team_scratch<pd>(std::size_t(iumax));
        }

        const NeighborLanes nb(p, drv, i, jj0, n, true);
        compute_du_lanes(*idx, nb.x, nb.y, nb.z, nb.z0, nb.r, nb.dz0dr, ur,
                         ui, dur, dui);
        double s[W], ds[W];
        for (int l = 0; l < W; ++l) {
          s[l] = switching(p, nb.r[l]);
          ds[l] = dswitching(p, nb.r[l]);
        }
        pd fij[3];
        compute_dedr(*idx, ur, ui, dur, dui, nb.x, nb.y, nb.z, nb.r,
                     pd::load(s), pd::load(ds), row_of(yr, i), row_of(yi, i),
                     fij);

        for (int l = 0; l < nb.count; ++l) {
          const double fl[3] = {fij[0][l], fij[1][l], fij[2][l]};
          const double dx = nb.x[l], dy = nb.y[l], dz = nb.z[l];
          const int jatom = njv(i, std::size_t(jj0 + l));
          for (std::size_t k = 0; k < 3; ++k) {
            kk::atomic_add(&f(i, k), fl[k]);
            kk::atomic_add(&f(std::size_t(jatom), k), -fl[k]);
          }
          ev.v[0] -= dx * fl[0];
          ev.v[1] -= dy * fl[1];
          ev.v[2] -= dz * fl[2];
          ev.v[3] -= dx * fl[1];
          ev.v[4] -= dx * fl[2];
          ev.v[5] -= dy * fl[2];
        }
      },
      total);
  for (int k = 0; k < 6; ++k) virial_out[k] = total.v[k];
  atom.modified<Space>(F_MASK);
}

template class SNAKokkos<kk::Host>;
template class SNAKokkos<kk::Device>;

}  // namespace mlk::snap
