// pair_style lj/cut/kk — Kokkos Lennard-Jones, dual-instantiated for Host
// and Device execution spaces (§3.3). Inherits coefficient handling from the
// base PairLJCut (paper Fig. 1's PairEAM / PairEAMKokkos relationship) and
// replaces the compute kernels with the generic pair_kokkos implementation.
//
// Exposes every §4.1 knob for the Fig. 2 experiments:
//   * full vs half neighbor lists, newton on/off,
//   * atomics vs duplication vs serial force deconflicting,
//   * atom-parallel vs hierarchical (neighbors-of-atom) parallelism.
#pragma once

#include "pair/pair_compute_kokkos.hpp"
#include "pair/pair_lj_cut.hpp"

namespace mlk {

/// Device-copyable coefficient functor for LJ: the functor contract of
/// pair_compute_kokkos.hpp.
struct LJFunctor {
  kk::View<double, 2> d_cutsq, d_lj1, d_lj2, d_lj3, d_lj4;

  double cutsq(int itype, int jtype) const {
    return d_cutsq(std::size_t(itype), std::size_t(jtype));
  }
  double fpair(double rsq, int itype, int jtype) const {
    const double r2inv = 1.0 / rsq;
    const double r6inv = r2inv * r2inv * r2inv;
    return r6inv *
           (d_lj1(std::size_t(itype), std::size_t(jtype)) * r6inv -
            d_lj2(std::size_t(itype), std::size_t(jtype))) *
           r2inv;
  }
  /// Fused force+energy evaluation: shares the r^-2/r^-6 intermediates
  /// between the two results. The returned force magnitude is the same
  /// expression as fpair(), so tally and no-tally steps produce
  /// bitwise-identical forces.
  double fpair_ev(double rsq, int itype, int jtype, double& evdwl_out) const {
    const double r2inv = 1.0 / rsq;
    const double r6inv = r2inv * r2inv * r2inv;
    evdwl_out = r6inv * (d_lj3(std::size_t(itype), std::size_t(jtype)) * r6inv -
                         d_lj4(std::size_t(itype), std::size_t(jtype)));
    return r6inv *
           (d_lj1(std::size_t(itype), std::size_t(jtype)) * r6inv -
            d_lj2(std::size_t(itype), std::size_t(jtype))) *
           r2inv;
  }

  // Pack-native evaluation (docs/VECTORIZATION.md): lane l holds neighbor l
  // of the chunk. Coefficients gather per lane (jtype varies); the r^-2/r^-6
  // algebra is identical op-for-op to the scalar expressions, so the W == 1
  // instantiation is bitwise-equal to fpair()/fpair_ev().
  template <int W>
  kk::simd<double, W> fpair_simd(const kk::simd<double, W>& rsq, int itype,
                                 const int* jtype) const {
    using pd = kk::simd<double, W>;
    const pd r2inv = pd(1.0) / rsq;
    const pd r6inv = r2inv * r2inv * r2inv;
    const pd lj1 = pd::gather([&](int l) {
      return d_lj1(std::size_t(itype), std::size_t(jtype[l]));
    });
    const pd lj2 = pd::gather([&](int l) {
      return d_lj2(std::size_t(itype), std::size_t(jtype[l]));
    });
    return r6inv * (lj1 * r6inv - lj2) * r2inv;
  }
  template <int W>
  kk::simd<double, W> fpair_ev_simd(const kk::simd<double, W>& rsq, int itype,
                                    const int* jtype,
                                    kk::simd<double, W>& evdwl_out) const {
    using pd = kk::simd<double, W>;
    const pd r2inv = pd(1.0) / rsq;
    const pd r6inv = r2inv * r2inv * r2inv;
    const pd lj3 = pd::gather([&](int l) {
      return d_lj3(std::size_t(itype), std::size_t(jtype[l]));
    });
    const pd lj4 = pd::gather([&](int l) {
      return d_lj4(std::size_t(itype), std::size_t(jtype[l]));
    });
    evdwl_out = r6inv * (lj3 * r6inv - lj4);
    const pd lj1 = pd::gather([&](int l) {
      return d_lj1(std::size_t(itype), std::size_t(jtype[l]));
    });
    const pd lj2 = pd::gather([&](int l) {
      return d_lj2(std::size_t(itype), std::size_t(jtype[l]));
    });
    return r6inv * (lj1 * r6inv - lj2) * r2inv;
  }
};

template <class Space>
class PairLJCutKokkos : public PairLJCut {
 public:
  PairLJCutKokkos();

  void init(Simulation& sim) override;
  void compute(Simulation& sim, bool eflag) override;

  // Comm/compute overlap: interior rows launch asynchronously on a
  // DeviceInstance while the halo exchange runs; boundary rows finish after
  // ghosts land (docs/EXECUTION_MODEL.md).
  bool supports_overlap(const NeighborList& list) const override;
  void compute_interior(Simulation& sim, bool eflag,
                        kk::DeviceInstance& instance) override;
  void compute_boundary(Simulation& sim, bool eflag) override;

  NeighStyle neigh_style() const override { return cfg_.neigh; }
  bool newton() const override { return cfg_.newton; }

  /// Experiment knobs (Fig. 2a/2b, ScatterView ablation).
  void set_neighbor_mode(NeighStyle style, bool newton_flag) {
    cfg_.neigh = style;
    cfg_.newton = newton_flag;
  }
  void set_parallelism(PairParallelism p) { cfg_.parallelism = p; }
  void set_scatter_mode(kk::ScatterMode m) { cfg_.scatter = m; }

 private:
  PairComputeConfig cfg_;
  LJFunctor functor_;
  // Interior-pass tallies, written by the async task through a captured
  // pointer; defined once the engine fences the interior instance.
  EV ev_interior_;
};

void register_pair_lj_cut_kokkos();

}  // namespace mlk
