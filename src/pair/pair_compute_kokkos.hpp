// pair_kokkos — the generic two-body force computation of §4.1.
//
// Every simple pairwise Kokkos style derives its force/energy kernels from a
// single implementation that handles:
//   * neighbor list style (FULL redundant-compute vs HALF with Newton's 3rd
//     law) — the Fig. 2b trade-off,
//   * write deconflicting through kk::ScatterView (atomics on Device,
//     duplication/serial on Host),
//   * atom-parallel (one work item per atom) vs hierarchical team-parallel
//     (concurrency over the neighbors of each atom) dispatch — the Fig. 2a
//     trade-off for small problems,
//   * energy/virial tallies with the correct half/full weighting.
//
// One owned row has one body, detail::pair_row, and the atom-parallel
// kernels have one launch, pair_compute_rows, over a row map: the full
// kernel maps the identity, and the comm/compute-overlap split maps the
// interior and boundary row lists.
//
// The concrete style supplies a device-copyable functor implementing:
//   double cutsq(itype, jtype)                 — squared cutoff
//   double fpair(rsq, itype, jtype)            — force magnitude divided by r
//   double fpair_ev(rsq, itype, jtype, double& evdwl_out)
//       — the same force, bitwise equal to fpair, plus the pair energy from
//         the shared intermediates; used whenever tallies are requested
//   simd<double,W> fpair_simd<W>(rsq_pack, itype, const int* jtype)
//   simd<double,W> fpair_ev_simd<W>(rsq_pack, itype, const int* jtype,
//                                   simd<double,W>& evdwl_out)
//       — the same two evaluations on a pack: lane l of rsq/jtype is
//         neighbor l of the chunk; W == 1 must be bitwise equal to the
//         scalar forms
// LJFunctor (pair_lj_cut_kokkos.hpp) implements it. When no tallies are
// requested the kernels drop the reduction machinery entirely and dispatch
// a plain parallel_for — the "fuse force+energy, eliminate the separate
// reduce pass" optimization of the source paper.
//
// SIMD: with kk::simd_enabled() (MLK_SIMD / `simd on`), every kernel below
// walks each atom row's neighbors kk::native_simd_width lanes at a time
// with kk::simd packs — distance math, the cutoff test, and the functor
// evaluation run masked across lanes (docs/VECTORIZATION.md). The scalar
// path stays the reference: SIMD off runs the per-neighbor loop.
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>

#include "engine/atom.hpp"
#include "engine/neighbor.hpp"
#include "kokkos/core.hpp"
#include "kokkos/scatterview.hpp"
#include "kokkos/simd.hpp"
#include "kokkos/team.hpp"

namespace mlk {

/// Energy + virial accumulator usable as a kk reduction value type.
struct EV {
  double evdwl = 0.0;
  double ecoul = 0.0;
  double v[6] = {0, 0, 0, 0, 0, 0};
  EV() = default;
  explicit EV(int) {}  // T(0) for reducers
  EV& operator+=(const EV& o) {
    evdwl += o.evdwl;
    ecoul += o.ecoul;
    for (int k = 0; k < 6; ++k) v[k] += o.v[k];
    return *this;
  }
};

enum class PairParallelism { Atom, Team };

struct PairComputeConfig {
  NeighStyle neigh = NeighStyle::Full;
  bool newton = false;
  PairParallelism parallelism = PairParallelism::Atom;
  kk::ScatterMode scatter = kk::ScatterMode::Atomic;
  static constexpr int vector_length = 32;  // logical lanes, team variant
  bool eflag = true;
};

/// The views a pair kernel reads and writes, synced to Space by the
/// constructor. Construct it on the calling thread: all DualView flag
/// bookkeeping happens there, so a kernel that later runs inside an
/// asynchronous kk::DeviceInstance task touches only these raw views
/// (docs/EXECUTION_MODEL.md: "flags stay on the submitting thread"). The
/// caller marks F modified once the kernel is issued.
template <class Space>
struct PairViews {
  template <class T, int Rank>
  using view = kk::View<T, Rank, typename Space::default_layout>;

  view<double, 2> x, f;
  view<int, 1> type;
  view<int, 2> neighbors;
  view<int, 1> numneigh;
  localint nlocal = 0;

  PairViews(Atom& atom, NeighborList& list) : nlocal(atom.nlocal) {
    atom.sync<Space>(X_MASK | TYPE_MASK | F_MASK);
    list.k_neighbors.sync<Space>();
    list.k_numneigh.sync<Space>();
    x = atom.k_x.view<Space>();
    f = atom.k_f.view<Space>();
    type = atom.k_type.view<Space>();
    neighbors = list.k_neighbors.view<Space>();
    numneigh = list.k_numneigh.view<Space>();
  }
};

namespace detail {

/// One (i, j) pair of the scalar reference loop. Always inlined: the pair
/// body must sit inside the neighbor loop whatever shape its caller has, or
/// -O2 leaves a function call per pair.
template <bool FULL, bool NEWTON, class XView, class FAcc, class TView,
          class Functor>
[[gnu::always_inline]] inline void pair_accumulate(
    const XView& x, const FAcc& facc, const TView& type, const Functor& func,
    std::size_t i, int j, localint nlocal, bool eflag, double& fxi,
    double& fyi, double& fzi, EV& ev) {
  const double dx = x(i, 0) - x(std::size_t(j), 0);
  const double dy = x(i, 1) - x(std::size_t(j), 1);
  const double dz = x(i, 2) - x(std::size_t(j), 2);
  const double rsq = dx * dx + dy * dy + dz * dz;
  const int itype = type(i);
  const int jtype = type(std::size_t(j));
  if (rsq >= func.cutsq(itype, jtype)) return;

  double epair = 0.0;
  const double fpair = eflag ? func.fpair_ev(rsq, itype, jtype, epair)
                             : func.fpair(rsq, itype, jtype);
  const double fx = dx * fpair, fy = dy * fpair, fz = dz * fpair;
  fxi += fx;
  fyi += fy;
  fzi += fz;
  if constexpr (!FULL) {
    facc.add(std::size_t(j), 0, -fx);
    facc.add(std::size_t(j), 1, -fy);
    facc.add(std::size_t(j), 2, -fz);
  }
  if (eflag) {
    const double factor =
        FULL ? 0.5 : ((j < nlocal || NEWTON) ? 1.0 : 0.5);
    ev.evdwl += factor * epair;
    ev.v[0] += factor * dx * fx;
    ev.v[1] += factor * dy * fy;
    ev.v[2] += factor * dz * fz;
    ev.v[3] += factor * dx * fy;
    ev.v[4] += factor * dx * fz;
    ev.v[5] += factor * dy * fz;
  }
}

/// SIMD counterpart of pair_accumulate: evaluates one chunk of up to W
/// neighbors of the atom at (xi0, xi1, xi2). `j` holds W neighbor indices
/// (inactive lanes padded with j[0], a valid index, so gathers never read
/// out of bounds); `act` marks real lanes. Forces and EV terms accumulate
/// into caller-held packs; inactive/out-of-cutoff lanes have fpair forced
/// to 0 so their contributions vanish. The j-side half-list scatter stays
/// per-active-lane (one add per (i,j) pair, row order preserved —
/// bitwise-identical to the scalar loop; see VECTORIZATION.md's
/// equivalence policy).
template <int W, bool FULL, bool NEWTON, class XView, class FAcc, class TView,
          class Functor>
inline void pair_chunk_packed(const XView& x, const FAcc& facc,
                              const TView& type, const Functor& func,
                              double xi0, double xi1, double xi2, int itype,
                              const int* j, const kk::simd_mask<W>& act,
                              localint nlocal, bool eflag,
                              kk::simd<double, W>& afx,
                              kk::simd<double, W>& afy,
                              kk::simd<double, W>& afz, kk::simd<double, W>& ae,
                              kk::simd<double, W>* av) {
  using pd = kk::simd<double, W>;
  const pd dx =
      pd(xi0) - pd::gather([&](int l) { return x(std::size_t(j[l]), 0); });
  const pd dy =
      pd(xi1) - pd::gather([&](int l) { return x(std::size_t(j[l]), 1); });
  const pd dz =
      pd(xi2) - pd::gather([&](int l) { return x(std::size_t(j[l]), 2); });
  const pd rsq = dx * dx + dy * dy + dz * dz;
  int jt[W];
  for (int l = 0; l < W; ++l) jt[l] = type(std::size_t(j[l]));
  const pd cut = pd::gather([&](int l) { return func.cutsq(itype, jt[l]); });
  const auto m = act && (rsq < cut);
  if (m.none()) return;
  // Inactive lanes divide a benign 1.0, never rsq garbage (NaN/UB safety).
  const pd rsq_s = kk::select(m, rsq, pd(1.0));

  pd epair;
  pd fpair = eflag ? func.template fpair_ev_simd<W>(rsq_s, itype, jt, epair)
                   : func.template fpair_simd<W>(rsq_s, itype, jt);
  fpair = kk::select(m, fpair, pd(0.0));
  const pd fx = dx * fpair, fy = dy * fpair, fz = dz * fpair;
  afx += fx;
  afy += fy;
  afz += fz;
  if constexpr (!FULL) {
    for (int l = 0; l < W; ++l) {
      if (!m[l]) continue;
      facc.add(std::size_t(j[l]), 0, -fx[l]);
      facc.add(std::size_t(j[l]), 1, -fy[l]);
      facc.add(std::size_t(j[l]), 2, -fz[l]);
    }
  }
  if (eflag) {
    epair = kk::select(m, epair, pd(0.0));
    pd factor;
    if constexpr (FULL) {
      factor = pd(0.5);
    } else if constexpr (NEWTON) {
      factor = pd(1.0);
    } else {
      kk::simd_mask<W> owned;
      for (int l = 0; l < W; ++l) owned.set(l, j[l] < nlocal);
      factor = kk::select(owned, pd(1.0), pd(0.5));
    }
    ae += factor * epair;
    av[0] += factor * (dx * fx);
    av[1] += factor * (dy * fy);
    av[2] += factor * (dz * fz);
    av[3] += factor * (dx * fy);
    av[4] += factor * (dx * fz);
    av[5] += factor * (dy * fz);
  }
}

/// Packed neighbor-row walk: a full-width main loop (hoisted all-true mask,
/// unpadded j loads — the structure the compiler turns into straight-line
/// vector code) plus one lane-padded masked remainder chunk. Pack
/// accumulators persist across the whole row and horizontally reduce once
/// at the end.
template <int W, bool FULL, bool NEWTON, class XView, class FAcc, class TView,
          class NeighView, class Functor>
inline void pair_row_packed(const XView& x, const FAcc& facc,
                            const TView& type, const NeighView& neigh,
                            const Functor& func, std::size_t i, int jnum,
                            localint nlocal, bool eflag, double& fxi,
                            double& fyi, double& fzi, EV& ev) {
  if (jnum <= 0) return;
  using pd = kk::simd<double, W>;
  const double xi0 = x(i, 0), xi1 = x(i, 1), xi2 = x(i, 2);
  const int itype = type(i);
  const kk::simd_mask<W> all(true);
  pd afx, afy, afz, ae;
  pd av[6];
  int j[W];
  const int nfull = jnum & ~(W - 1);
  for (int jj = 0; jj < nfull; jj += W) {
    for (int l = 0; l < W; ++l) j[l] = neigh(i, std::size_t(jj + l));
    pair_chunk_packed<W, FULL, NEWTON>(x, facc, type, func, xi0, xi1, xi2,
                                       itype, j, all, nlocal, eflag, afx, afy,
                                       afz, ae, av);
  }
  if (nfull < jnum) {
    const int rem = jnum - nfull;
    for (int l = 0; l < rem; ++l) j[l] = neigh(i, std::size_t(nfull + l));
    for (int l = rem; l < W; ++l) j[l] = j[0];  // pad with a valid index
    pair_chunk_packed<W, FULL, NEWTON>(
        x, facc, type, func, xi0, xi1, xi2, itype, j,
        kk::simd_mask<W>::first(rem), nlocal, eflag, afx, afy, afz, ae, av);
  }
  fxi += kk::reduce_sum(afx);
  fyi += kk::reduce_sum(afy);
  fzi += kk::reduce_sum(afz);
  if (eflag) {
    ev.evdwl += kk::reduce_sum(ae);
    for (int k = 0; k < 6; ++k) ev.v[k] += kk::reduce_sum(av[k]);
  }
}

/// The one body for owned row i: the scalar reference loop, or the packed
/// walk when `use_simd`, then the row's force adds on atom i. Tallies land
/// in `ev` when `eflag`.
template <bool FULL, bool NEWTON, class Space, class FAcc, class Functor>
inline void pair_row(const PairViews<Space>& v, const FAcc& facc,
                     const Functor& func, std::size_t i, bool use_simd,
                     bool eflag, EV& ev) {
  double fxi = 0.0, fyi = 0.0, fzi = 0.0;
  const int jnum = v.numneigh(i);
  if (use_simd) {
    pair_row_packed<kk::native_simd_width, FULL, NEWTON>(
        v.x, facc, v.type, v.neighbors, func, i, jnum, v.nlocal, eflag, fxi,
        fyi, fzi, ev);
  } else {
    for (int jj = 0; jj < jnum; ++jj) {
      const int j = v.neighbors(i, std::size_t(jj));
      pair_accumulate<FULL, NEWTON>(v.x, facc, v.type, func, i, j, v.nlocal,
                                    eflag, fxi, fyi, fzi, ev);
    }
  }
  facc.add(i, 0, fxi);
  facc.add(i, 1, fyi);
  facc.add(i, 2, fzi);
}

}  // namespace detail

/// Atom-parallel kernel: one work item per row, work item s computing owned
/// row `row_of(s)` for s in [0, n). Performs no DualView bookkeeping (the
/// PairViews constructor did it), so it may run inside an asynchronous
/// kk::DeviceInstance task. Returns the energy/virial of those rows.
template <class Space, bool FULL, bool NEWTON, class RowOf, class Functor>
EV pair_compute_rows(const std::string& name, const PairViews<Space>& views,
                     const RowOf& row_of, std::size_t n, const Functor& func,
                     kk::ScatterMode scatter, bool eflag) {
  kk::ScatterView<double, 2, Space> fscatter(views.f, scatter);
  auto facc = fscatter.access();
  const bool use_simd = kk::simd_enabled();
  if (use_simd) kk::simdstats::count_launch(name);

  EV total;
  const auto row = [=](std::size_t s, EV& ev) {
    detail::pair_row<FULL, NEWTON>(views, facc, func, std::size_t(row_of(s)),
                                   use_simd, eflag, ev);
  };
  if (eflag) {
    kk::parallel_reduce(name, kk::RangePolicy<Space>(0, n), row, total);
  } else {
    // No tallies requested: plain parallel_for, no reduction machinery.
    kk::parallel_for(name, kk::RangePolicy<Space>(0, n), [=](std::size_t s) {
      EV unused;
      row(s, unused);
    });
  }
  fscatter.contribute();
  return total;
}

/// Team-parallel kernel over owned rows [0, n): one team per atom, neighbor
/// loop distributed over (logical) vector lanes — exposes enough
/// concurrency to saturate a GPU on small systems (§4.1, Fig. 2a).
template <class Space, bool FULL, bool NEWTON, class Functor>
EV pair_compute_team(const std::string& name, const PairViews<Space>& views,
                     std::size_t n, const Functor& func,
                     kk::ScatterMode scatter, bool eflag) {
  kk::ScatterView<double, 2, Space> fscatter(views.f, scatter);
  auto facc = fscatter.access();

  const bool use_simd = kk::simd_enabled();
  if (use_simd) kk::simdstats::count_launch(name);

  EV total;
  kk::TeamPolicy<Space> policy(n, 1, PairComputeConfig::vector_length);
  kk::parallel_reduce(
      name, policy,
      [=](const kk::TeamMember& member, EV& ev) {
        const std::size_t i = member.league_rank();
        const int jnum = views.numneigh(i);
        // Per-lane partial forces on atom i reduced across the vector range.
        double fxi = 0.0, fyi = 0.0, fzi = 0.0;
        EV ev_local;
        const double xi0 = views.x(i, 0), xi1 = views.x(i, 1),
                     xi2 = views.x(i, 2);
        const int itype = views.type(i);
        // Single-source vector level: W = native width with SIMD on, 1 off.
        kk::vector_for(
            kk::ThreadVectorRange(member, std::size_t(jnum)),
            [&](auto lanes) {
              constexpr int W = decltype(lanes)::width;
              using pd = kk::simd<double, W>;
              int j[W];
              j[0] = views.neighbors(i, lanes.index(0));  // lane 0 active
              for (int l = 1; l < W; ++l)
                j[l] = lanes.mask[l] ? views.neighbors(i, lanes.index(l))
                                     : j[0];
              pd afx, afy, afz, ae;
              pd av[6];
              detail::pair_chunk_packed<W, FULL, NEWTON>(
                  views.x, facc, views.type, func, xi0, xi1, xi2, itype, j,
                  lanes.mask, views.nlocal, eflag, afx, afy, afz, ae, av);
              fxi += kk::reduce_sum(afx);
              fyi += kk::reduce_sum(afy);
              fzi += kk::reduce_sum(afz);
              if (eflag) {
                ev_local.evdwl += kk::reduce_sum(ae);
                for (int k = 0; k < 6; ++k)
                  ev_local.v[k] += kk::reduce_sum(av[k]);
              }
            });
        member.team_barrier();
        facc.add(i, 0, fxi);
        facc.add(i, 1, fyi);
        facc.add(i, 2, fzi);
        ev += ev_local;
      },
      total);
  fscatter.contribute();
  return total;
}

/// Full force kernel for every owned row of `list`, dispatched at runtime
/// over list style, newton flag and parallelism.
template <class Space, class Functor>
EV pair_compute_dispatch(const std::string& name, Atom& atom,
                         NeighborList& list, const Functor& func,
                         const PairComputeConfig& cfg) {
  const PairViews<Space> views(atom, list);
  const std::size_t n = std::size_t(list.inum);
  const auto launch = [&](auto full, auto newton) {
    if (cfg.parallelism == PairParallelism::Team)
      return pair_compute_team<Space, full, newton>(
          name, views, n, func, cfg.scatter, cfg.eflag);
    return pair_compute_rows<Space, full, newton>(
        name, views, [](std::size_t i) { return i; }, n, func, cfg.scatter,
        cfg.eflag);
  };
  const std::true_type yes{};
  const std::false_type no{};
  const EV ev = list.style == NeighStyle::Full ? launch(yes, no)
                : list.newton                  ? launch(no, yes)
                                               : launch(no, no);
  atom.modified<Space>(F_MASK);
  return ev;
}

}  // namespace mlk
