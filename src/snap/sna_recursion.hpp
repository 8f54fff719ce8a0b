// One definition of every SNAP formula (§4.3), shared by the host SNA
// reference (sna.hpp), compute snap/bispectrum and the SNAKokkos kernels
// (sna_kernels.hpp, which stage their buffers in team scratch — the
// software-managed cache of §4.4).
//
// The recursions are templates over the value type T. `double` evaluates one
// neighbor (or atom), and SNA runs that instantiation; `kk::simd<double, W>`
// evaluates W at once, lane l holding the l-th. Every T operation is lanewise
// IEEE math in the scalar source order and the per-entry constants (rootpq,
// Clebsch-Gordan, Y) broadcast, so lane l of the pack instantiation is bitwise
// the `double` instantiation on lane l's inputs (docs/VECTORIZATION.md). The
// sums over neighbors, entries and atoms run in one order on both sides too,
// so on one pool participant the kernels compute bitwise what SNA computes.
//
// Row arguments (U, Z and Y rows) are anything indexable with [int]: a plain
// pointer in SNA, a View row in the kernels.
#pragma once

#include <cmath>

#include "kokkos/simd.hpp"
#include "snap/clebsch_gordan.hpp"

namespace mlk::snap {

struct SnaParams {
  int twojmax = 6;
  double rcut = 3.0;
  double rfac0 = 0.99363;
  double rmin0 = 0.0;
  double wself = 1.0;
  bool switch_flag = true;
};

/// Whether a neighbor at squared distance rsq enters an atom's SNAP sums:
/// inside the cutoff and not on top of the atom.
inline bool in_snap_cutoff(double rsq, double rcutsq) {
  return rsq < rcutsq && rsq >= 1e-20;
}

/// Switching function f_c(r): 1 inside rmin0, a half cosine down to 0 at rcut.
inline double switching(const SnaParams& p, double r) {
  if (!p.switch_flag) return 1.0;
  if (r <= p.rmin0) return 1.0;
  if (r >= p.rcut) return 0.0;
  const double t = (r - p.rmin0) / (p.rcut - p.rmin0);
  return 0.5 * (std::cos(t * 3.14159265358979323846) + 1.0);
}

/// df_c/dr.
inline double dswitching(const SnaParams& p, double r) {
  if (!p.switch_flag) return 0.0;
  if (r <= p.rmin0 || r >= p.rcut) return 0.0;
  const double span = p.rcut - p.rmin0;
  const double t = (r - p.rmin0) / span;
  return -0.5 * 3.14159265358979323846 / span *
         std::sin(t * 3.14159265358979323846);
}

/// Cayley-Klein parameters of the hypersphere map for one neighbor.
inline void cayley_klein(double rfac0, double rmin0, double rcut, double r,
                         double* z0, double* dz0dr) {
  const double rscale0 = rfac0 * 3.14159265358979323846 / (rcut - rmin0);
  const double theta0 = (r - rmin0) * rscale0;
  const double cs = std::cos(theta0), sn = std::sin(theta0);
  *z0 = r * cs / sn;
  if (dz0dr) *dz0dr = *z0 / r - (r * rscale0) * (r * r + *z0 * *z0) / (r * r);
}

/// U_tot's starting value, the self term: wself on the diagonal of every j
/// block, zero elsewhere. Neighbors' switched U rows are then added in
/// neighbor order.
inline void u_self_term(const SnaIndexes& idx, double wself, double* ur,
                        double* ui) {
  for (int k = 0; k < idx.idxu_max; ++k) ur[k] = ui[k] = 0.0;
  for (int j = 0; j <= idx.twojmax; ++j) {
    const int base = idx.idxu_block[std::size_t(j)];
    for (int mb = 0; mb <= j; ++mb) ur[base + mb * (j + 1) + mb] = wself;
  }
}

/// U recursion for one neighbor per lane into ur/ui (idx.idxu_max each).
template <class T>
inline void compute_u_lanes(const SnaIndexes& idx, const T& x, const T& y,
                            const T& z, const T& z0, const T& r, T* ur,
                            T* ui) {
  using std::sqrt;
  const T r0inv = 1.0 / sqrt(r * r + z0 * z0);
  const T a_r = r0inv * z0, a_i = -r0inv * z;
  const T b_r = r0inv * y, b_i = -r0inv * x;
  const auto& rootpq = idx.rootpq;

  ur[0] = T(1.0);
  ui[0] = T(0.0);
  for (int j = 1; j <= idx.twojmax; ++j) {
    int jju = idx.idxu_block[std::size_t(j)];
    int jjup = idx.idxu_block[std::size_t(j) - 1];
    for (int mb = 0; 2 * mb <= j; ++mb) {
      ur[jju] = T(0.0);
      ui[jju] = T(0.0);
      for (int ma = 0; ma < j; ++ma) {
        double rpq = rootpq(std::size_t(j - ma), std::size_t(j - mb));
        const T pur = ur[jjup], pui = ui[jjup];
        ur[jju] += rpq * (a_r * pur + a_i * pui);
        ui[jju] += rpq * (a_r * pui - a_i * pur);
        rpq = rootpq(std::size_t(ma) + 1, std::size_t(j - mb));
        ur[jju + 1] = -rpq * (b_r * pur + b_i * pui);
        ui[jju + 1] = -rpq * (b_r * pui - b_i * pur);
        ++jju;
        ++jjup;
      }
      ++jju;
    }
    // u(j, j-ma, j-mb) = (-1)^(ma+mb) conj(u(j, ma, mb)).
    jju = idx.idxu_block[std::size_t(j)];
    int jjur = jju + (j + 1) * (j + 1) - 1;
    int mbpar = 1;
    for (int mb = 0; 2 * mb <= j; ++mb) {
      int mapar = mbpar;
      for (int ma = 0; ma <= j; ++ma) {
        if (mapar == 1) {
          ur[jjur] = ur[jju];
          ui[jjur] = -ui[jju];
        } else {
          ur[jjur] = -ur[jju];
          ui[jjur] = ui[jju];
        }
        mapar = -mapar;
        ++jju;
        --jjur;
      }
      mbpar = -mbpar;
    }
  }
}

/// Simultaneous U and dU recursion for one neighbor per lane. dur/dui are
/// arrays of three buffers (x, y, z directions), each idx.idxu_max values.
/// The switching-function chain rule is applied by compute_dedr.
template <class T>
inline void compute_du_lanes(const SnaIndexes& idx, const T& x, const T& y,
                             const T& z, const T& z0, const T& r,
                             const T& dz0dr, T* ur, T* ui, T* const dur[3],
                             T* const dui[3]) {
  using std::sqrt;
  const T rinv = 1.0 / r;
  const T ux = x * rinv, uy = y * rinv, uz = z * rinv;
  const T r0inv = 1.0 / sqrt(r * r + z0 * z0);
  const T a_r = z0 * r0inv, a_i = -z * r0inv;
  const T b_r = y * r0inv, b_i = -x * r0inv;
  const T dr0invdr = -r0inv * r0inv * r0inv * (r + z0 * dz0dr);
  const T dr0inv[3] = {dr0invdr * ux, dr0invdr * uy, dr0invdr * uz};
  const T dz0[3] = {dz0dr * ux, dz0dr * uy, dz0dr * uz};

  T da_r[3], da_i[3], db_r[3], db_i[3];
  for (int k = 0; k < 3; ++k) {
    da_r[k] = dz0[k] * r0inv + z0 * dr0inv[k];
    da_i[k] = -z * dr0inv[k];
    db_r[k] = y * dr0inv[k];
    db_i[k] = -x * dr0inv[k];
  }
  da_i[2] += -r0inv;
  db_r[1] += r0inv;
  db_i[0] += -r0inv;

  ur[0] = T(1.0);
  ui[0] = T(0.0);
  for (int k = 0; k < 3; ++k) {
    dur[k][0] = T(0.0);
    dui[k][0] = T(0.0);
  }
  const auto& rootpq = idx.rootpq;

  for (int j = 1; j <= idx.twojmax; ++j) {
    int jju = idx.idxu_block[std::size_t(j)];
    int jjup = idx.idxu_block[std::size_t(j) - 1];
    for (int mb = 0; 2 * mb <= j; ++mb) {
      ur[jju] = T(0.0);
      ui[jju] = T(0.0);
      for (int k = 0; k < 3; ++k) {
        dur[k][jju] = T(0.0);
        dui[k][jju] = T(0.0);
      }
      for (int ma = 0; ma < j; ++ma) {
        const T pur = ur[jjup], pui = ui[jjup];
        double rpq = rootpq(std::size_t(j - ma), std::size_t(j - mb));
        ur[jju] += rpq * (a_r * pur + a_i * pui);
        ui[jju] += rpq * (a_r * pui - a_i * pur);
        for (int k = 0; k < 3; ++k) {
          const T pdur = dur[k][jjup], pdui = dui[k][jjup];
          dur[k][jju] +=
              rpq * (da_r[k] * pur + da_i[k] * pui + a_r * pdur + a_i * pdui);
          dui[k][jju] +=
              rpq * (da_r[k] * pui - da_i[k] * pur + a_r * pdui - a_i * pdur);
        }
        rpq = rootpq(std::size_t(ma) + 1, std::size_t(j - mb));
        ur[jju + 1] = -rpq * (b_r * pur + b_i * pui);
        ui[jju + 1] = -rpq * (b_r * pui - b_i * pur);
        for (int k = 0; k < 3; ++k) {
          const T pdur = dur[k][jjup], pdui = dui[k][jjup];
          dur[k][jju + 1] =
              -rpq * (db_r[k] * pur + db_i[k] * pui + b_r * pdur + b_i * pdui);
          dui[k][jju + 1] =
              -rpq * (db_r[k] * pui - db_i[k] * pur + b_r * pdui - b_i * pdur);
        }
        ++jju;
        ++jjup;
      }
      ++jju;
    }
    jju = idx.idxu_block[std::size_t(j)];
    int jjur = jju + (j + 1) * (j + 1) - 1;
    int mbpar = 1;
    for (int mb = 0; 2 * mb <= j; ++mb) {
      int mapar = mbpar;
      for (int ma = 0; ma <= j; ++ma) {
        if (mapar == 1) {
          ur[jjur] = ur[jju];
          ui[jjur] = -ui[jju];
          for (int k = 0; k < 3; ++k) {
            dur[k][jjur] = dur[k][jju];
            dui[k][jjur] = -dui[k][jju];
          }
        } else {
          ur[jjur] = -ur[jju];
          ui[jjur] = ui[jju];
          for (int k = 0; k < 3; ++k) {
            dur[k][jjur] = -dur[k][jju];
            dui[k][jjur] = dui[k][jju];
          }
        }
        mapar = -mapar;
        ++jju;
        --jjur;
      }
      mbpar = -mbpar;
    }
  }
}

/// Z triple product for one idxz entry, one atom per lane: ur/ui are the
/// atoms' U rows (idx.idxu_max values each). In the kernels the lanes are a
/// block of W atoms walking the same flat indices — the §4.3.2 batching
/// axis — so only the U values vary per lane.
template <class T>
inline void compute_z_entry(const SnaIndexes& idx, const SnaIndexes::ZEntry& e,
                            const T* ur, const T* ui, T* z_r, T* z_i) {
  const double* cgblock = idx.cglist.data() + idx.cg_offset(e.j1, e.j2, e.j);
  T zr = T(0.0), zi = T(0.0);
  int jju1 = idx.idxu_block[std::size_t(e.j1)] + (e.j1 + 1) * e.mb1min;
  int jju2 = idx.idxu_block[std::size_t(e.j2)] + (e.j2 + 1) * e.mb2max;
  int icgb = e.mb1min * (e.j2 + 1) + e.mb2max;
  for (int ib = 0; ib < e.nb; ++ib) {
    T suma1_r = T(0.0), suma1_i = T(0.0);
    int ma1 = e.ma1min, ma2 = e.ma2max;
    int icga = e.ma1min * (e.j2 + 1) + e.ma2max;
    for (int ia = 0; ia < e.na; ++ia) {
      const T u1r = ur[jju1 + ma1], u1i = ui[jju1 + ma1];
      const T u2r = ur[jju2 + ma2], u2i = ui[jju2 + ma2];
      const double cga = cgblock[icga];
      suma1_r += cga * (u1r * u2r - u1i * u2i);
      suma1_i += cga * (u1r * u2i + u1i * u2r);
      ++ma1;
      --ma2;
      icga += e.j2;
    }
    zr += cgblock[icgb] * suma1_r;
    zi += cgblock[icgb] * suma1_i;
    jju1 += e.j1 + 1;
    jju2 -= e.j2 + 1;
    icgb += e.j2;
  }
  *z_r = zr;
  *z_i = zi;
}

/// Adds idxz entry e's beta-weighted Z into the adjoint Y row y_r/y_i at the
/// entry's U index. Each stored B triple stands for up to three (j1, j2, j)
/// permutations; beta_fac, resolved at index build, weights them.
template <class T>
inline void add_y_entry(const SnaIndexes& idx, const SnaIndexes::ZEntry& e,
                        const double* beta, const T* ur, const T* ui, T* y_r,
                        T* y_i) {
  T z_r, z_i;
  compute_z_entry(idx, e, ur, ui, &z_r, &z_i);
  const double betaj = beta[e.jjb] * e.beta_fac;
  y_r[e.jju] += betaj * z_r;
  y_i[e.jju] += betaj * z_i;
}

/// Walks the entries of U block j that the symmetric contractions visit, in
/// flat order: f(offset into the block, weight) for the rows 2mb < j with
/// weight 1, then, for even j, the middle row's first half with weight 1
/// and its center with weight 1/2.
template <class F>
inline void for_half_block(int j, const F& f) {
  int k = 0;
  for (int mb = 0; 2 * mb < j; ++mb)
    for (int ma = 0; ma <= j; ++ma) f(k++, 1.0);
  if (j % 2 == 0) {
    for (int ma = 0; ma < j / 2; ++ma) f(k++, 1.0);
    f(k, 0.5);
  }
}

/// B for one idxb triple (j1, j2, j) of one atom: 2 Re(U_j : Z_{j1 j2 j})
/// over the half block of j. ur/ui are the atom's U row, zr/zi its Z row.
template <class U, class Z>
inline double compute_b_entry(const SnaIndexes& idx,
                              const SnaIndexes::BTriple& t, const U& ur,
                              const U& ui, const Z& zr, const Z& zi) {
  const int jjz = idx.z_block(t.j1, t.j2, t.j);
  const int jju = idx.idxu_block[std::size_t(t.j)];
  double sumzu = 0.0;
  for_half_block(t.j, [&](int k, double w) {
    sumzu += w * (ur[jju + k] * zr[jjz + k] + ui[jju + k] * zi[jjz + k]);
  });
  return 2.0 * sumzu;
}

/// dE_i/dr_ij for one neighbor per lane at displacement (x, y, z), distance
/// r: contracts d(sfac*U)/dr with the atom's Y row yr/yi over the half block
/// of each j. ur/ui/dur/dui come from compute_du_lanes; s/ds are the
/// switching function and its derivative at r. Every lane shares the Y row
/// (all lanes are neighbors of one atom).
template <class T, class Y>
inline void compute_dedr(const SnaIndexes& idx, const T* ur, const T* ui,
                         const T* const dur[3], const T* const dui[3],
                         const T& x, const T& y, const T& z, const T& r,
                         const T& s, const T& ds, const Y& yr, const Y& yi,
                         T fij[3]) {
  const T rinv = 1.0 / r;
  const T u3[3] = {x * rinv, y * rinv, z * rinv};
  for (int k = 0; k < 3; ++k) fij[k] = T(0.0);
  for (int j = 0; j <= idx.twojmax; ++j) {
    const int base = idx.idxu_block[std::size_t(j)];
    for_half_block(j, [&](int off, double w) {
      const int jju = base + off;
      const double y_r = yr[jju], y_i = yi[jju];
      for (int k = 0; k < 3; ++k) {
        const T dre = ds * ur[jju] * u3[k] + s * dur[k][jju];
        const T dim = ds * ui[jju] * u3[k] + s * dui[k][jju];
        fij[k] += w * (dre * y_r + dim * y_i);
      }
    });
  }
  for (int k = 0; k < 3; ++k) fij[k] = fij[k] * 2.0;
}

}  // namespace mlk::snap
