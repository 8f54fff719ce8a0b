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
/// pair_compute_kokkos.hpp. Lane l evaluates the pair of types (itype[l],
/// jtype[l]); coefficients gather per lane, and the r^-2/r^-6 algebra is
/// PairLJCut::pair_force's expression op for op, so every lane is bitwise
/// the scalar evaluation. Always inlined, like the pair body that calls it.
struct LJFunctor {
  kk::View<double, 2> d_cutsq, d_lj1, d_lj2, d_lj3, d_lj4;

  double cutsq(int itype, int jtype) const {
    return d_cutsq(std::size_t(itype), std::size_t(jtype));
  }

  template <int W>
  [[gnu::always_inline]] kk::simd<double, W> fpair_simd(
      const kk::simd<double, W>& rsq, const int* itype,
      const int* jtype) const {
    using pd = kk::simd<double, W>;
    const pd r2inv = pd(1.0) / rsq;
    const pd r6inv = r2inv * r2inv * r2inv;
    return r6inv * (coeff<W>(d_lj1, itype, jtype) * r6inv -
                    coeff<W>(d_lj2, itype, jtype)) *
           r2inv;
  }
  /// Fused force+energy evaluation: shares the r^-2/r^-6 intermediates
  /// between the two results. The force is fpair_simd's expression, so
  /// tally and no-tally steps produce bitwise-identical forces.
  template <int W>
  [[gnu::always_inline]] kk::simd<double, W> fpair_ev_simd(
      const kk::simd<double, W>& rsq, const int* itype, const int* jtype,
      kk::simd<double, W>& evdwl_out) const {
    using pd = kk::simd<double, W>;
    const pd r2inv = pd(1.0) / rsq;
    const pd r6inv = r2inv * r2inv * r2inv;
    evdwl_out = r6inv * (coeff<W>(d_lj3, itype, jtype) * r6inv -
                         coeff<W>(d_lj4, itype, jtype));
    return r6inv * (coeff<W>(d_lj1, itype, jtype) * r6inv -
                    coeff<W>(d_lj2, itype, jtype)) *
           r2inv;
  }

 private:
  template <int W>
  [[gnu::always_inline]] static kk::simd<double, W> coeff(
      const kk::View<double, 2>& c, const int* itype, const int* jtype) {
    return kk::simd<double, W>::gather([&](int l) {
      return c(std::size_t(itype[l]), std::size_t(jtype[l]));
    });
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

  /// The coefficient functor the kernels run (defined after init), for
  /// callers that launch a kernel at another lane width.
  const LJFunctor& functor() const { return functor_; }

 private:
  PairComputeConfig cfg_;
  LJFunctor functor_;
  // Interior-pass tallies, written by the async task through a captured
  // pointer; defined once the engine fences the interior instance.
  EV ev_interior_;
};

void register_pair_lj_cut_kokkos();

}  // namespace mlk
