#include "snap/sna.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mlk::snap {

SNA::SNA(const SnaParams& p) : params_(p) {
  require(p.rcut > p.rmin0, "SNA: rcut must exceed rmin0");
  idx_.build(p.twojmax);
  const std::size_t n = std::size_t(idx_.idxu_max);
  ulist_r_.assign(n, 0.0);
  ulist_i_.assign(n, 0.0);
  utot_r_.assign(n, 0.0);
  utot_i_.assign(n, 0.0);
  zlist_r_.assign(std::size_t(idx_.idxz_max), 0.0);
  zlist_i_.assign(std::size_t(idx_.idxz_max), 0.0);
  ylist_r_.assign(n, 0.0);
  ylist_i_.assign(n, 0.0);
  blist_.assign(std::size_t(idx_.idxb_max), 0.0);
  for (int k = 0; k < 3; ++k) {
    dulist_r_[k].assign(n, 0.0);
    dulist_i_[k].assign(n, 0.0);
  }
}

void SNA::zero_ui() {
  u_self_term(idx_, params_.wself, utot_r_.data(), utot_i_.data());
}

void SNA::add_neighbor_ui(const double dr[3], double r) {
  require(r > 0.0, "add_neighbor_ui: zero distance");
  double z0;
  cayley_klein(params_.rfac0, params_.rmin0, params_.rcut, r, &z0, nullptr);
  compute_u_lanes(idx_, dr[0], dr[1], dr[2], z0, r, ulist_r_.data(),
                  ulist_i_.data());
  const double s = switching(params_, r);
  for (std::size_t k = 0; k < ulist_r_.size(); ++k) {
    utot_r_[k] += s * ulist_r_[k];
    utot_i_[k] += s * ulist_i_[k];
  }
}

void SNA::compute_zi() {
  for (int jjz = 0; jjz < idx_.idxz_max; ++jjz)
    compute_z_entry(idx_, idx_.idxz[std::size_t(jjz)], utot_r_.data(),
                    utot_i_.data(), &zlist_r_[std::size_t(jjz)],
                    &zlist_i_[std::size_t(jjz)]);
}

void SNA::compute_bi() {
  for (int jjb = 0; jjb < idx_.idxb_max; ++jjb)
    blist_[std::size_t(jjb)] = compute_b_entry(
        idx_, idx_.idxb[std::size_t(jjb)], utot_r_.data(), utot_i_.data(),
        zlist_r_.data(), zlist_i_.data());
}

void SNA::compute_yi(const double* beta) {
  std::fill(ylist_r_.begin(), ylist_r_.end(), 0.0);
  std::fill(ylist_i_.begin(), ylist_i_.end(), 0.0);
  for (const auto& e : idx_.idxz)
    add_y_entry(idx_, e, beta, utot_r_.data(), utot_i_.data(),
                ylist_r_.data(), ylist_i_.data());
}

void SNA::compute_dedr(const double dr[3], double r, double f[3]) {
  double z0, dz0dr;
  cayley_klein(params_.rfac0, params_.rmin0, params_.rcut, r, &z0, &dz0dr);
  double* dur[3];
  double* dui[3];
  for (int k = 0; k < 3; ++k) {
    dur[k] = dulist_r_[k].data();
    dui[k] = dulist_i_[k].data();
  }
  compute_du_lanes(idx_, dr[0], dr[1], dr[2], z0, r, dz0dr, ulist_r_.data(),
                   ulist_i_.data(), dur, dui);
  snap::compute_dedr(idx_, ulist_r_.data(), ulist_i_.data(), dur, dui, dr[0],
                     dr[1], dr[2], r, switching(params_, r),
                     dswitching(params_, r), ylist_r_.data(),
                     ylist_i_.data(), f);
}

std::vector<double> synthetic_beta(int ncoeff, int seed, double scale) {
  std::vector<double> beta;
  beta.resize(std::size_t(ncoeff));
  unsigned state = unsigned(seed) * 2654435761u + 12345u;
  for (int k = 0; k < ncoeff; ++k) {
    state = state * 1664525u + 1013904223u;
    const double u = double(state >> 8) / double(1u << 24);  // [0,1)
    beta[std::size_t(k)] = scale * (2.0 * u - 1.0) / (1.0 + 0.25 * k);
  }
  return beta;
}

}  // namespace mlk::snap
