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

double switching(const SnaParams& p, double r) {
  if (!p.switch_flag) return 1.0;
  if (r <= p.rmin0) return 1.0;
  if (r >= p.rcut) return 0.0;
  const double t = (r - p.rmin0) / (p.rcut - p.rmin0);
  return 0.5 * (std::cos(t * 3.14159265358979323846) + 1.0);
}

double dswitching(const SnaParams& p, double r) {
  if (!p.switch_flag) return 0.0;
  if (r <= p.rmin0 || r >= p.rcut) return 0.0;
  const double span = p.rcut - p.rmin0;
  const double t = (r - p.rmin0) / span;
  return -0.5 * 3.14159265358979323846 / span *
         std::sin(t * 3.14159265358979323846);
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

  // Count pass (divergent, cheap) -> max reduction for table width.
  kk::View1D<int, Space> counts("snap::counts",
                                std::size_t(std::max<localint>(natom, 1)));
  kk::parallel_for("SNAP::stage_count",
                   kk::RangePolicy<Space>(0, std::size_t(natom)),
                   [=](std::size_t i) {
                     int c = 0;
                     const int jnum = numneigh(i);
                     for (int jj = 0; jj < jnum; ++jj) {
                       const int j = neigh(i, std::size_t(jj));
                       const double dx = x(std::size_t(j), 0) - x(i, 0);
                       const double dy = x(std::size_t(j), 1) - x(i, 1);
                       const double dz = x(std::size_t(j), 2) - x(i, 2);
                       const double rsq = dx * dx + dy * dy + dz * dz;
                       if (rsq < rcutsq && rsq > 1e-20) ++c;
                     }
                     counts(i) = c;
                   });
  int maxn = 1;
  kk::parallel_reduce_impl(
      "SNAP::stage_max", kk::RangePolicy<Space>(0, std::size_t(natom)),
      [=](std::size_t i, int& m) {
        if (counts(i) > m) m = counts(i);
      },
      kk::Max<int>(maxn));
  maxneigh = std::max(maxn, 1);

  neigh_dr = kk::View3D<double, Space>("snap::neigh_dr",
                                       std::size_t(std::max<localint>(natom, 1)),
                                       std::size_t(maxneigh), 4);
  neigh_j = kk::View2D<int, Space>("snap::neigh_j",
                                   std::size_t(std::max<localint>(natom, 1)),
                                   std::size_t(maxneigh));
  nneigh = kk::View1D<int, Space>("snap::nneigh",
                                  std::size_t(std::max<localint>(natom, 1)));
  auto dr = neigh_dr;
  auto nj = neigh_j;
  auto nn = nneigh;

  // Fill pass: compressed per-atom tables (fully convergent afterwards).
  kk::parallel_for("SNAP::stage_fill",
                   kk::RangePolicy<Space>(0, std::size_t(natom)),
                   [=](std::size_t i) {
                     int c = 0;
                     const int jnum = numneigh(i);
                     for (int jj = 0; jj < jnum; ++jj) {
                       const int j = neigh(i, std::size_t(jj));
                       const double dx = x(std::size_t(j), 0) - x(i, 0);
                       const double dy = x(std::size_t(j), 1) - x(i, 1);
                       const double dz = x(std::size_t(j), 2) - x(i, 2);
                       const double rsq = dx * dx + dy * dy + dz * dz;
                       if (rsq >= rcutsq || rsq <= 1e-20) continue;
                       dr(i, std::size_t(c), 0) = dx;
                       dr(i, std::size_t(c), 1) = dy;
                       dr(i, std::size_t(c), 2) = dz;
                       dr(i, std::size_t(c), 3) = std::sqrt(rsq);
                       nj(i, std::size_t(c)) = j;
                       ++c;
                     }
                     nn(i) = c;
                   });

  // (Re)allocate per-atom quantum-number views.
  const std::size_t na = std::size_t(std::max<localint>(natom, 1));
  utot_r = kk::View2D<double, Space>("snap::utot_r", na,
                                     std::size_t(idx_.idxu_max));
  utot_i = kk::View2D<double, Space>("snap::utot_i", na,
                                     std::size_t(idx_.idxu_max));
  ylist_r = kk::View2D<double, Space>("snap::ylist_r", na,
                                      std::size_t(idx_.idxu_max));
  ylist_i = kk::View2D<double, Space>("snap::ylist_i", na,
                                      std::size_t(idx_.idxu_max));
}

template <class Space>
void SNAKokkos<Space>::compute_ui() {
  const SnaIndexes* idx = &idx_;
  const SnaParams p = params_;
  auto utr = utot_r;
  auto uti = utot_i;
  auto dr = neigh_dr;
  auto nn = nneigh;
  const int batch = std::max(1, ui_batch);
  const int nbatches = (maxneigh + batch - 1) / batch;
  const int iumax = idx_.idxu_max;

  // Self term.
  kk::parallel_for("SNAP::ComputeUi_self",
                   kk::RangePolicy<Space>(0, std::size_t(natom)),
                   [=](std::size_t i) {
                     for (int k = 0; k < iumax; ++k) {
                       utr(i, std::size_t(k)) = 0.0;
                       uti(i, std::size_t(k)) = 0.0;
                     }
                     for (int j = 0; j <= p.twojmax; ++j) {
                       const int base = idx->idxu_block[std::size_t(j)];
                       for (int mb = 0; mb <= j; ++mb)
                         utr(i, std::size_t(base + mb * (j + 1) + mb)) =
                             p.wself;
                     }
                   });

  // One team per (atom, neighbor-batch); recursion staged in team scratch;
  // `batch` neighbors summed locally before the atomic accumulation
  // (Table 2's ComputeUi work batching: fewer FP64 atomics + exposed ILP).
  // The scratch accumulate below is elementwise (one add per flat index per
  // neighbor), so its packed form is bitwise-identical to scalar.
  const bool use_simd = kk::simd_enabled();
  if (use_simd) kk::simdstats::count_launch("SNAP::ComputeUi");
  const std::size_t league = std::size_t(natom) * std::size_t(nbatches);
  const std::size_t scratch =
      std::size_t(iumax) * 4 * sizeof(double);  // u pair + local accumulator
  auto policy =
      kk::TeamPolicy<Space>(league, 1, 32).set_scratch_size(scratch);
  kk::parallel_for("SNAP::ComputeUi", policy, [=](const kk::TeamMember& m) {
    const std::size_t i = m.league_rank() / std::size_t(nbatches);
    const int b = int(m.league_rank() % std::size_t(nbatches));
    const int jbeg = b * batch;
    const int jend = std::min(nn(i), jbeg + batch);
    if (jbeg >= jend) return;

    double* ur = m.team_scratch<double>(std::size_t(iumax));
    double* ui = m.team_scratch<double>(std::size_t(iumax));
    double* acc_r = m.team_scratch<double>(std::size_t(iumax));
    double* acc_i = m.team_scratch<double>(std::size_t(iumax));
    for (int k = 0; k < iumax; ++k) acc_r[k] = acc_i[k] = 0.0;

    for (int jj = jbeg; jj < jend; ++jj) {
      const double dx = dr(i, std::size_t(jj), 0);
      const double dy = dr(i, std::size_t(jj), 1);
      const double dz = dr(i, std::size_t(jj), 2);
      const double r = dr(i, std::size_t(jj), 3);
      double z0;
      cayley_klein(p.rfac0, p.rmin0, p.rcut, r, &z0, nullptr);
      compute_u_raw(*idx, dx, dy, dz, z0, r, ur, ui);
      const double s = switching(p, r);
      if (use_simd) {
        constexpr int W = kk::native_simd_width;
        using pd = kk::simd<double, W>;
        const pd sp(s);
        const int nfull = iumax & ~(W - 1);
        for (int k = 0; k < nfull; k += W) {
          (pd::load(acc_r + k) + sp * pd::load(ur + k)).store(acc_r + k);
          (pd::load(acc_i + k) + sp * pd::load(ui + k)).store(acc_i + k);
        }
        for (int k = nfull; k < iumax; ++k) {
          acc_r[k] += s * ur[k];
          acc_i[k] += s * ui[k];
        }
      } else {
        for (int k = 0; k < iumax; ++k) {
          acc_r[k] += s * ur[k];
          acc_i[k] += s * ui[k];
        }
      }
    }
    // Single atomic accumulation per batch.
    for (int k = 0; k < iumax; ++k) {
      kk::atomic_add(&utr(i, std::size_t(k)), acc_r[k]);
      kk::atomic_add(&uti(i, std::size_t(k)), acc_i[k]);
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

  // Z: parallel over atoms, serial over idxz within a thread. SIMD assigns
  // lanes to *atoms* (the §4.3.2 batching axis): every lane shares the flat
  // index walk, so U rows load as packs — contiguous under Device
  // LayoutLeft — and each lane reproduces the scalar op order exactly
  // (bitwise policy; docs/VECTORIZATION.md).
  const bool use_simd = kk::simd_enabled();
  if (use_simd) {
    kk::simdstats::count_launch("SNAP::ComputeZi");
    constexpr int W = kk::native_simd_width;
    using pd = kk::simd<double, W>;
    const std::size_t na_sz = std::size_t(natom);
    const std::size_t nblk = (na_sz + W - 1) / W;
    kk::parallel_for(
        "SNAP::ComputeZi", kk::RangePolicy<Space>(0, nblk),
        [=](std::size_t blk) {
          const std::size_t i0 = blk * W;
          const int nlane = int(std::min<std::size_t>(W, na_sz - i0));
          if (nlane == W) {
            const bool contig = W == 1 || &utr(i0 + 1, 0) - &utr(i0, 0) == 1;
            const auto block = [&](const auto& lur, const auto& lui) {
              for (int jjz = 0; jjz < idx->idxz_max; ++jjz) {
                pd z_r, z_i;
                compute_z_entry_lanes<W>(*idx, idx->idxz[std::size_t(jjz)],
                                         lur, lui, &z_r, &z_i);
                for (int l = 0; l < W; ++l) {
                  zr(i0 + std::size_t(l), std::size_t(jjz)) = z_r[l];
                  zi(i0 + std::size_t(l), std::size_t(jjz)) = z_i[l];
                }
              }
            };
            if (contig)
              block([&](int k) { return pd::load(&utr(i0, std::size_t(k))); },
                    [&](int k) { return pd::load(&uti(i0, std::size_t(k))); });
            else
              block(
                  [&](int k) {
                    return pd::gather([&](int l) {
                      return utr(i0 + std::size_t(l), std::size_t(k));
                    });
                  },
                  [&](int k) {
                    return pd::gather([&](int l) {
                      return uti(i0 + std::size_t(l), std::size_t(k));
                    });
                  });
          } else {
            for (int l = 0; l < nlane; ++l) {
              const std::size_t i = i0 + std::size_t(l);
              for (int jjz = 0; jjz < idx->idxz_max; ++jjz) {
                double z_r, z_i;
                compute_z_entry(
                    *idx, idx->idxz[std::size_t(jjz)],
                    [&](int k) { return utr(i, std::size_t(k)); },
                    [&](int k) { return uti(i, std::size_t(k)); }, &z_r, &z_i);
                zr(i, std::size_t(jjz)) = z_r;
                zi(i, std::size_t(jjz)) = z_i;
              }
            }
          }
        });
  } else {
    kk::parallel_for(
        "SNAP::ComputeZi", kk::RangePolicy<Space>(0, std::size_t(natom)),
        [=](std::size_t i) {
          for (int jjz = 0; jjz < idx->idxz_max; ++jjz) {
            double z_r, z_i;
            compute_z_entry(
                *idx, idx->idxz[std::size_t(jjz)],
                [&](int k) { return utr(i, std::size_t(k)); },
                [&](int k) { return uti(i, std::size_t(k)); }, &z_r, &z_i);
            zr(i, std::size_t(jjz)) = z_r;
            zi(i, std::size_t(jjz)) = z_i;
          }
        });
  }

  // B + energy reduction.
  double energy = 0.0;
  kk::parallel_reduce(
      "SNAP::ComputeBi", kk::RangePolicy<Space>(0, std::size_t(natom)),
      [=](std::size_t i, double& esum) {
        for (int jjb = 0; jjb < idx->idxb_max; ++jjb) {
          const auto& t = idx->idxb[std::size_t(jjb)];
          int jjz = idx->z_block(t.j1, t.j2, t.j);
          int jju = idx->idxu_block[std::size_t(t.j)];
          double sumzu = 0.0;
          for (int mb = 0; 2 * mb < t.j; ++mb)
            for (int ma = 0; ma <= t.j; ++ma) {
              sumzu += utr(i, std::size_t(jju)) * zr(i, std::size_t(jjz)) +
                       uti(i, std::size_t(jju)) * zi(i, std::size_t(jjz));
              ++jjz;
              ++jju;
            }
          if (t.j % 2 == 0) {
            const int mb = t.j / 2;
            for (int ma = 0; ma < mb; ++ma) {
              sumzu += utr(i, std::size_t(jju)) * zr(i, std::size_t(jjz)) +
                       uti(i, std::size_t(jju)) * zi(i, std::size_t(jjz));
              ++jjz;
              ++jju;
            }
            sumzu +=
                0.5 * (utr(i, std::size_t(jju)) * zr(i, std::size_t(jjz)) +
                       uti(i, std::size_t(jju)) * zi(i, std::size_t(jjz)));
          }
          const double b = 2.0 * sumzu;
          bl(i, std::size_t(jjb)) = b;
          esum += beta[jjb] * b;
        }
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

  kk::parallel_for("SNAP::Yi_zero",
                   kk::RangePolicy<Space>(0, std::size_t(natom)),
                   [=](std::size_t i) {
                     for (int k = 0; k < idx->idxu_max; ++k) {
                       yr(i, std::size_t(k)) = 0.0;
                       yi(i, std::size_t(k)) = 0.0;
                     }
                   });

  // Tiled (atom, flattened-Z) traversal: atom-tile width `yi_tile` is the
  // batch size v of §4.3.2 — small enough that the U rows for v atoms stay
  // cache-resident, large enough for convergent accesses.
  const std::size_t v = std::size_t(std::max(1, yi_tile));
  const bool use_simd = kk::simd_enabled();
  if (use_simd) {
    // SIMD path: lanes over atoms (§4.3.2's batch axis — same shape as the
    // packed ComputeZi above). One block of W atoms walks all Z entries;
    // the W U rows (~idxu_max * W * 16 B) stay cache-resident, replacing
    // the MDRange atom tiling. Per (atom, jju) the adds still land in
    // ascending-jjz order and each block owns its atom rows outright, so
    // the accumulation is non-atomic and bitwise-identical to scalar.
    kk::simdstats::count_launch("SNAP::ComputeYi");
    constexpr int W = kk::native_simd_width;
    using pd = kk::simd<double, W>;
    const std::size_t na_sz = std::size_t(natom);
    const std::size_t nblk = (na_sz + W - 1) / W;
    kk::parallel_for(
        "SNAP::ComputeYi", kk::RangePolicy<Space>(0, nblk),
        [=](std::size_t blk) {
          const std::size_t i0 = blk * W;
          const int nlane = int(std::min<std::size_t>(W, na_sz - i0));
          if (nlane == W) {
            const bool contig = W == 1 || &utr(i0 + 1, 0) - &utr(i0, 0) == 1;
            const auto block = [&](const auto& lur, const auto& lui) {
              for (int jjz = 0; jjz < idx->idxz_max; ++jjz) {
                const auto& e = idx->idxz[std::size_t(jjz)];
                pd z_r, z_i;
                compute_z_entry_lanes<W>(*idx, e, lur, lui, &z_r, &z_i);
                const double betaj = beta[e.jjb] * e.beta_fac;
                for (int l = 0; l < W; ++l) {
                  yr(i0 + std::size_t(l), std::size_t(e.jju)) +=
                      betaj * z_r[l];
                  yi(i0 + std::size_t(l), std::size_t(e.jju)) +=
                      betaj * z_i[l];
                }
              }
            };
            if (contig)
              block([&](int k) { return pd::load(&utr(i0, std::size_t(k))); },
                    [&](int k) { return pd::load(&uti(i0, std::size_t(k))); });
            else
              block(
                  [&](int k) {
                    return pd::gather([&](int l) {
                      return utr(i0 + std::size_t(l), std::size_t(k));
                    });
                  },
                  [&](int k) {
                    return pd::gather([&](int l) {
                      return uti(i0 + std::size_t(l), std::size_t(k));
                    });
                  });
          } else {
            for (int l = 0; l < nlane; ++l) {
              const std::size_t i = i0 + std::size_t(l);
              for (int jjz = 0; jjz < idx->idxz_max; ++jjz) {
                const auto& e = idx->idxz[std::size_t(jjz)];
                double z_r, z_i;
                compute_z_entry(
                    *idx, e, [&](int k) { return utr(i, std::size_t(k)); },
                    [&](int k) { return uti(i, std::size_t(k)); }, &z_r, &z_i);
                const double betaj = beta[e.jjb] * e.beta_fac;
                yr(i, std::size_t(e.jju)) += betaj * z_r;
                yi(i, std::size_t(e.jju)) += betaj * z_i;
              }
            }
          }
        });
    return;
  }
  kk::MDRangePolicy<Space, 2> policy({std::size_t(natom),
                                      std::size_t(idx_.idxz_max)},
                                     {v, std::size_t(idx_.idxz_max)});
  kk::parallel_for(
      "SNAP::ComputeYi", policy, [=](std::size_t i, std::size_t jjz) {
        const auto& e = idx->idxz[jjz];
        double z_r, z_i;
        compute_z_entry(
            *idx, e, [&](int k) { return utr(i, std::size_t(k)); },
            [&](int k) { return uti(i, std::size_t(k)); }, &z_r, &z_i);
        const double betaj = beta[e.jjb] * e.beta_fac;
        kk::atomic_add(&yr(i, std::size_t(e.jju)), betaj * z_r);
        kk::atomic_add(&yi(i, std::size_t(e.jju)), betaj * z_i);
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

  // One team per (atom, neighbor): fused dU recursion over all three
  // directions with scratch staging, contraction with Y inlined into the
  // force accumulation (ComputeFusedDeidrj, Table 2).
  const bool use_simd = kk::simd_enabled();
  if (use_simd) kk::simdstats::count_launch("SNAP::ComputeFusedDeidrj");
  const std::size_t league = std::size_t(natom) * std::size_t(maxneigh);
  const std::size_t scratch = std::size_t(iumax) * 8 * sizeof(double);
  auto policy =
      kk::TeamPolicy<Space>(league, 1, 32).set_scratch_size(scratch);

  EV total;
  kk::parallel_reduce(
      "SNAP::ComputeFusedDeidrj", policy,
      [=, this](const kk::TeamMember& m, EV& ev) {
        const std::size_t i = m.league_rank() / std::size_t(maxneigh);
        const int jj = int(m.league_rank() % std::size_t(maxneigh));
        if (jj >= nn(i)) return;

        double* ur = m.team_scratch<double>(std::size_t(iumax));
        double* ui_ = m.team_scratch<double>(std::size_t(iumax));
        double* dur[3];
        double* dui[3];
        for (int k = 0; k < 3; ++k) {
          dur[k] = m.team_scratch<double>(std::size_t(iumax));
          dui[k] = m.team_scratch<double>(std::size_t(iumax));
        }

        const double dx = drv(i, std::size_t(jj), 0);
        const double dy = drv(i, std::size_t(jj), 1);
        const double dz = drv(i, std::size_t(jj), 2);
        const double r = drv(i, std::size_t(jj), 3);
        double z0, dz0dr;
        cayley_klein(p.rfac0, p.rmin0, p.rcut, r, &z0, &dz0dr);
        compute_du_raw(*idx, dx, dy, dz, z0, r, dz0dr, ur, ui_, dur, dui);

        const double s = switching(p, r);
        const double ds = dswitching(p, r);
        const double u3[3] = {dx / r, dy / r, dz / r};

        // Contract d(sfac*U)/dr with Y using the half-plus-middle-row
        // weighting (same traversal as ComputeDeidrj).
        double fij[3] = {0.0, 0.0, 0.0};
        auto accum = [&](int jju, double w) {
          for (int k = 0; k < 3; ++k) {
            const double dre = ds * ur[jju] * u3[k] + s * dur[k][jju];
            const double dim = ds * ui_[jju] * u3[k] + s * dui[k][jju];
            fij[k] += w * (dre * yr(i, std::size_t(jju)) +
                           dim * yi(i, std::size_t(jju)));
          }
        };
        if (use_simd) {
          // Packed contraction. Per j, all weight-1.0 entries are one
          // contiguous flat-index run starting at idxu_block[j]: the
          // 2mb<j rows back-to-back, plus (even j) the first j/2 entries
          // of the middle row; the lone 0.5-weighted middle entry follows
          // it. ur/dur live in contiguous team scratch (pack loads); Y is
          // a View row (gather). Lane partials reduce once at the end —
          // tolerance policy vs the scalar interleaved order.
          constexpr int W = kk::native_simd_width;
          using pd = kk::simd<double, W>;
          const pd sp(s), dsp(ds);
          pd facc[3];
          for (int j = 0; j <= p.twojmax; ++j) {
            const int jju0 = idx->idxu_block[std::size_t(j)];
            const int len =
                ((j + 1) / 2) * (j + 1) + (j % 2 == 0 ? j / 2 : 0);
            const int nfull = len & ~(W - 1);
            for (int off = 0; off < nfull; off += W) {
              const int base = jju0 + off;
              const pd urp = pd::load(ur + base);
              const pd uip = pd::load(ui_ + base);
              const pd yrp = pd::gather(
                  [&](int l) { return yr(i, std::size_t(base + l)); });
              const pd yip = pd::gather(
                  [&](int l) { return yi(i, std::size_t(base + l)); });
              for (int k = 0; k < 3; ++k) {
                const pd durp = pd::load(dur[k] + base);
                const pd duip = pd::load(dui[k] + base);
                const pd dre = dsp * urp * pd(u3[k]) + sp * durp;
                const pd dim = dsp * uip * pd(u3[k]) + sp * duip;
                facc[k] += dre * yrp + dim * yip;
              }
            }
            if (len > nfull) {
              const kk::simd_mask<W> m = kk::simd_mask<W>::first(len - nfull);
              const int base = jju0 + nfull;
              const pd urp = pd::load_masked(ur + base, m);
              const pd uip = pd::load_masked(ui_ + base, m);
              const pd yrp = pd::gather_masked(
                  m, [&](int l) { return yr(i, std::size_t(base + l)); });
              const pd yip = pd::gather_masked(
                  m, [&](int l) { return yi(i, std::size_t(base + l)); });
              for (int k = 0; k < 3; ++k) {
                const pd durp = pd::load_masked(dur[k] + base, m);
                const pd duip = pd::load_masked(dui[k] + base, m);
                const pd dre = dsp * urp * pd(u3[k]) + sp * durp;
                const pd dim = dsp * uip * pd(u3[k]) + sp * duip;
                facc[k] += dre * yrp + dim * yip;
              }
            }
            if (j % 2 == 0) accum(jju0 + len, 0.5);
          }
          for (int k = 0; k < 3; ++k) fij[k] += kk::reduce_sum(facc[k]);
        } else {
          for (int j = 0; j <= p.twojmax; ++j) {
            int jju = idx->idxu_block[std::size_t(j)];
            for (int mb = 0; 2 * mb < j; ++mb)
              for (int ma = 0; ma <= j; ++ma) accum(jju++, 1.0);
            if (j % 2 == 0) {
              const int mb = j / 2;
              for (int ma = 0; ma < mb; ++ma) accum(jju++, 1.0);
              accum(jju, 0.5);
            }
          }
        }
        for (int k = 0; k < 3; ++k) fij[k] *= 2.0;

        const int jatom = njv(i, std::size_t(jj));
        for (std::size_t k = 0; k < 3; ++k) {
          kk::atomic_add(&f(i, k), fij[k]);
          kk::atomic_add(&f(std::size_t(jatom), k), -fij[k]);
        }
        ev.v[0] -= dx * fij[0];
        ev.v[1] -= dy * fij[1];
        ev.v[2] -= dz * fij[2];
        ev.v[3] -= dx * fij[1];
        ev.v[4] -= dx * fij[2];
        ev.v[5] -= dy * fij[2];
      },
      total);
  for (int k = 0; k < 6; ++k) virial_out[k] = total.v[k];
  atom.modified<Space>(F_MASK);
}

template class SNAKokkos<kk::Host>;
template class SNAKokkos<kk::Device>;

}  // namespace mlk::snap
