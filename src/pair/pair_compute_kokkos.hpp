// pair_kokkos — the generic two-body force computation of §4.1.
//
// Every simple pairwise Kokkos style derives its force/energy kernels from a
// single implementation that handles:
//   * neighbor list style (FULL redundant-compute vs HALF with Newton's 3rd
//     law) — the Fig. 2b trade-off,
//   * write deconflicting through kk::ScatterView (atomics on Device,
//     duplication/serial on Host),
//   * atom-parallel (one work item per block of atoms) vs hierarchical
//     team-parallel (concurrency over the neighbors of each atom) dispatch —
//     the Fig. 2a trade-off for small problems,
//   * energy/virial tallies with the correct half/full weighting.
//
// Both kernels evaluate pairs through one lane body, detail::pair_lanes.
// The atom-parallel kernels have one launch, pair_compute_rows, over a row
// map: the full kernel maps the identity, and the comm/compute-overlap split
// maps the interior and boundary row lists. It packs atoms, not neighbors:
// each work item takes W = kk::native_simd_width consecutive rows, and lane
// l walks row l's neighbors in list order (detail::pair_block) — the paper's
// one-thread-per-atom GPU mapping (§3.2, §4.1) on this CPU's SIMD lanes.
// Each lane replays the scalar operation order, so every width gives each
// row the W = 1 sum bit for bit. The team-parallel kernel packs W neighbors
// of one atom and sums each pack across lanes (docs/VECTORIZATION.md). Both
// take W as a template argument, the native width by default; W = 1 is the
// scalar reference that tests compare against.
//
// The concrete style supplies a device-copyable functor implementing:
//   double cutsq(itype, jtype)                 — squared cutoff
//   simd<double,W> fpair_simd<W>(rsq, const int* itype, const int* jtype)
//       — force magnitude divided by r, lane l for the pair of types
//         (itype[l], jtype[l])
//   simd<double,W> fpair_ev_simd<W>(rsq, itype, jtype,
//                                   simd<double,W>& evdwl_out)
//       — the same force, bitwise equal to fpair_simd, plus the pair energy
//         from the shared intermediates; used whenever tallies are requested
// Lane l of each must be the scalar expression, so W == 1 is the scalar
// reference. LJFunctor (pair_lj_cut_kokkos.hpp) implements it. When no
// tallies are requested the kernels drop the reduction machinery entirely
// and dispatch a plain parallel_for — the "fuse force+energy, eliminate the
// separate reduce pass" optimization of the source paper.
#pragma once

#include <algorithm>
#include <climits>
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

/// Distances, force magnitudes and (with tallies) pair energies of W pairs.
template <int W>
struct PairLanes {
  kk::simd<double, W> dx, dy, dz, fpair, epair;
  kk::simd_mask<W> m;  // active and inside the cutoff
};

/// W pairs evaluated lane by lane: lane l pairs the atom at lane l of
/// (xi0, xi1, xi2), of type itype[l], with neighbor j[l]. Every lane op is
/// the scalar pair expression, so each lane is bit for bit the scalar
/// evaluation of its pair. Lanes outside `m` divide a benign 1.0, and
/// callers ignore their dx and fpair. Always inlined, so the pair body sits
/// inside the caller's neighbor loop.
template <int W, bool EFLAG, class XView, class TView, class Functor>
[[gnu::always_inline]] inline PairLanes<W> pair_lanes(
    const XView& x, const TView& type, const Functor& func,
    const kk::simd<double, W>& xi0, const kk::simd<double, W>& xi1,
    const kk::simd<double, W>& xi2, const int* itype, const int* j,
    const kk::simd_mask<W>& act) {
  using pd = kk::simd<double, W>;
  PairLanes<W> p;
  p.dx = xi0 - pd::gather([&](int l) { return x(std::size_t(j[l]), 0); });
  p.dy = xi1 - pd::gather([&](int l) { return x(std::size_t(j[l]), 1); });
  p.dz = xi2 - pd::gather([&](int l) { return x(std::size_t(j[l]), 2); });
  const pd rsq = p.dx * p.dx + p.dy * p.dy + p.dz * p.dz;
  int jtype[W];
  for (int l = 0; l < W; ++l) jtype[l] = type(std::size_t(j[l]));
  const pd cut =
      pd::gather([&](int l) { return func.cutsq(itype[l], jtype[l]); });
  // !(rsq >= cut), not rsq < cut: a NaN lane stays in, as the scalar test
  // `if (rsq >= cutsq) continue` keeps it.
  p.m = act && !(rsq >= cut);
  const pd rsq_s = kk::select(p.m, rsq, pd(1.0));
  if constexpr (EFLAG)
    p.fpair = func.template fpair_ev_simd<W>(rsq_s, itype, jtype, p.epair);
  else
    p.fpair = func.template fpair_simd<W>(rsq_s, itype, jtype);
  return p;
}

/// Tally weight of each lane's pair: a full list holds every pair twice,
/// and a half list with newton off holds an owned-ghost pair on both
/// ranks.
template <int W, bool FULL, bool NEWTON>
[[gnu::always_inline]] inline kk::simd<double, W> pair_weight(
    const int* j, localint nlocal) {
  using pd = kk::simd<double, W>;
  if constexpr (FULL) {
    return pd(0.5);
  } else if constexpr (NEWTON) {
    return pd(1.0);
  } else {
    kk::simd_mask<W> owned;
    for (int l = 0; l < W; ++l) owned.set(l, j[l] < nlocal);
    return kk::select(owned, pd(1.0), pd(0.5));
  }
}

/// One work item of the atom-parallel kernel: rows s0 .. s0+W-1 of the row
/// map, one per lane (lanes past n stay masked). Lane l walks its row's
/// neighbors in list order and accumulates under its own mask, so every
/// row's force sum is the scalar row loop's, bit for bit. A lane past its
/// row's end reads no table entry: its j is padded with its own i.
///
/// The epilogue runs lane by lane in row order. A half list first replays
/// the row's j-side adds from `jbuf`/`fbuf` (W x maxneighs, staged by the
/// walk), then the row adds its own total: the scalar loop's add order.
/// Energy and virial are per-row partials, added to `ev` in row order.
template <int W, bool FULL, bool NEWTON, bool EFLAG, class Space, class FAcc,
          class RowOf, class Functor>
inline void pair_block(const PairViews<Space>& v, const FAcc& facc,
                       const Functor& func, const RowOf& row_of,
                       std::size_t s0, std::size_t n, int* jbuf, double* fbuf,
                       EV& ev) {
  using pd = kk::simd<double, W>;
  using mask = kk::simd_mask<W>;
  const int nrow = int(std::min<std::size_t>(W, n - s0));
  std::size_t i[W];
  int itype[W], jnum[W];
  int jmin = INT_MAX, jmax = 0;
  for (int l = 0; l < W; ++l) {
    i[l] = std::size_t(row_of(s0 + std::size_t(l < nrow ? l : 0)));
    itype[l] = v.type(i[l]);
    jnum[l] = l < nrow ? v.numneigh(i[l]) : 0;
    jmin = std::min(jmin, jnum[l]);
    jmax = std::max(jmax, jnum[l]);
  }
  const pd xi0 = pd::gather([&](int l) { return v.x(i[l], 0); });
  const pd xi1 = pd::gather([&](int l) { return v.x(i[l], 1); });
  const pd xi2 = pd::gather([&](int l) { return v.x(i[l], 2); });

  pd fxi, fyi, fzi, ei;
  pd vi[6];
  // Always inlined: an outlined call per jj would spill every accumulator.
  const auto pair = [&](int jj, const mask& act,
                        const int* j) __attribute__((always_inline)) {
    const PairLanes<W> p = pair_lanes<W, EFLAG>(v.x, v.type, func, xi0, xi1,
                                                xi2, itype, j, act);
    const pd fx = p.dx * p.fpair, fy = p.dy * p.fpair, fz = p.dz * p.fpair;
    kk::where(p.m, fxi) += fx;
    kk::where(p.m, fyi) += fy;
    kk::where(p.m, fzi) += fz;
    if constexpr (!FULL) {
      for (int l = 0; l < W; ++l) jbuf[jj * W + l] = p.m[l] ? j[l] : -1;
      fx.store(fbuf + 3 * W * jj);
      fy.store(fbuf + 3 * W * jj + W);
      fz.store(fbuf + 3 * W * jj + 2 * W);
    }
    if constexpr (EFLAG) {
      const pd factor = pair_weight<W, FULL, NEWTON>(j, v.nlocal);
      kk::where(p.m, ei) += factor * p.epair;
      kk::where(p.m, vi[0]) += factor * p.dx * fx;
      kk::where(p.m, vi[1]) += factor * p.dy * fy;
      kk::where(p.m, vi[2]) += factor * p.dz * fz;
      kk::where(p.m, vi[3]) += factor * p.dx * fy;
      kk::where(p.m, vi[4]) += factor * p.dx * fz;
      kk::where(p.m, vi[5]) += factor * p.dy * fz;
    }
  };

  // Every lane is active up to the shortest row; the tail is masked.
  int j[W];
  int jj = 0;
  for (; jj < jmin; ++jj) {
    for (int l = 0; l < W; ++l) j[l] = v.neighbors(i[l], std::size_t(jj));
    pair(jj, mask(true), j);
  }
  for (; jj < jmax; ++jj) {
    mask act;
    for (int l = 0; l < W; ++l) {
      act.set(l, jj < jnum[l]);
      j[l] = act[l] ? v.neighbors(i[l], std::size_t(jj)) : int(i[l]);
    }
    pair(jj, act, j);
  }

  for (int l = 0; l < nrow; ++l) {
    if constexpr (!FULL) {
      for (int k = 0; k < jnum[l]; ++k) {
        const int jr = jbuf[k * W + l];
        if (jr < 0) continue;
        const double* fr = fbuf + 3 * W * k + l;
        facc.add(std::size_t(jr), 0, -fr[0]);
        facc.add(std::size_t(jr), 1, -fr[W]);
        facc.add(std::size_t(jr), 2, -fr[2 * W]);
      }
    }
    facc.add(i[l], 0, fxi[l]);
    facc.add(i[l], 1, fyi[l]);
    facc.add(i[l], 2, fzi[l]);
    if constexpr (EFLAG) {
      ev.evdwl += ei[l];
      for (int k = 0; k < 6; ++k) ev.v[k] += vi[k][l];
    }
  }
}

/// Calls f(std::true_type{}) or f(std::false_type{}): a runtime flag
/// becomes a compile-time one.
template <class F>
inline void with_flag(bool flag, const F& f) {
  if (flag)
    f(std::true_type{});
  else
    f(std::false_type{});
}

}  // namespace detail

/// Atom-parallel kernel: one work item per block of W rows, lane l of work
/// item b computing owned row `row_of(b * W + l)`, for rows s in [0, n).
/// W = 1 is the scalar reference. Every width matches it bit for bit
/// wherever the scalar result is itself deterministic: full-list forces
/// always (each row adds once), half-list forces and the tallies when the
/// blocks run in order on one participant, as on Host. Performs no DualView
/// bookkeeping (the PairViews constructor did it), so it may run inside an
/// asynchronous kk::DeviceInstance task. Returns the energy/virial of those
/// rows.
template <class Space, bool FULL, bool NEWTON, int W = kk::native_simd_width,
          class RowOf, class Functor>
EV pair_compute_rows(const std::string& name, const PairViews<Space>& views,
                     const RowOf& row_of, std::size_t n, const Functor& func,
                     kk::ScatterMode scatter, bool eflag) {
  kk::ScatterView<double, 2, Space> fscatter(views.f, scatter);
  const auto facc = fscatter.access();
  // A half list stages each block's j-side adds: W rows x maxneighs pairs.
  const std::size_t nstage = FULL ? 0 : W * views.neighbors.extent(1);
  auto policy =
      kk::TeamPolicy<Space>((n + W - 1) / W, 1, W)
          .set_scratch_size(nstage * (3 * sizeof(double) + sizeof(int)));

  EV total;
  detail::with_flag(eflag, [&](auto eflag_c) {
    constexpr bool EFLAG = decltype(eflag_c)::value;
    const auto block = [=](const kk::TeamMember& m, EV& ev) {
      double* fbuf = FULL ? nullptr : m.team_scratch<double>(3 * nstage);
      int* jbuf = FULL ? nullptr : m.team_scratch<int>(nstage);
      detail::pair_block<W, FULL, NEWTON, EFLAG>(
          views, facc, func, row_of, m.league_rank() * W, n, jbuf, fbuf, ev);
    };
    if constexpr (EFLAG) {
      kk::parallel_reduce(name, policy, block, total);
    } else {
      // No tallies requested: plain parallel_for, no reduction machinery.
      kk::parallel_for(name, policy, [=](const kk::TeamMember& m) {
        EV unused;
        block(m, unused);
      });
    }
  });
  fscatter.contribute();
  return total;
}

/// Team-parallel kernel over owned rows [0, n): one team per atom, neighbor
/// loop distributed over (logical) vector lanes — exposes enough
/// concurrency to saturate a GPU on small systems (§4.1, Fig. 2a).
/// kk::vector_for packs W neighbors of the row and sums each pack across
/// lanes, so the native width matches W = 1 within tolerance
/// (docs/VECTORIZATION.md). W = 1 adds each pair in list order, as the
/// atom-parallel kernel does: at W = 1 the two kernels agree bit for bit.
template <class Space, bool FULL, bool NEWTON, int W = kk::native_simd_width,
          class Functor>
EV pair_compute_team(const std::string& name, const PairViews<Space>& views,
                     std::size_t n, const Functor& func,
                     kk::ScatterMode scatter, bool eflag) {
  kk::ScatterView<double, 2, Space> fscatter(views.f, scatter);
  const auto facc = fscatter.access();

  EV total;
  kk::TeamPolicy<Space> policy(n, 1, PairComputeConfig::vector_length);
  detail::with_flag(eflag, [&](auto eflag_c) {
    constexpr bool EFLAG = decltype(eflag_c)::value;
    kk::parallel_reduce(
        name, policy,
        [=](const kk::TeamMember& member, EV& ev) {
          const std::size_t i = member.league_rank();
          const int jnum = views.numneigh(i);
          double fxi = 0.0, fyi = 0.0, fzi = 0.0;
          EV ev_local;
          const int itype = views.type(i);
          const double xi0 = views.x(i, 0), xi1 = views.x(i, 1),
                       xi2 = views.x(i, 2);
          kk::vector_for<W>(
              kk::ThreadVectorRange(member, std::size_t(jnum)),
              [&](const kk::LaneBlock<W>& lanes) {
                using pd = kk::simd<double, W>;
                int j[W], it[W];
                j[0] = views.neighbors(i, lanes.index(0));  // lane 0 active
                for (int l = 1; l < W; ++l)
                  j[l] = lanes.mask[l] ? views.neighbors(i, lanes.index(l))
                                       : j[0];
                for (int l = 0; l < W; ++l) it[l] = itype;
                const auto p = detail::pair_lanes<W, EFLAG>(
                    views.x, views.type, func, pd(xi0), pd(xi1), pd(xi2), it,
                    j, lanes.mask);
                if (p.m.none()) return;
                const pd fpair = kk::select(p.m, p.fpair, pd(0.0));
                const pd fx = p.dx * fpair, fy = p.dy * fpair,
                         fz = p.dz * fpair;
                fxi += kk::reduce_sum(fx);
                fyi += kk::reduce_sum(fy);
                fzi += kk::reduce_sum(fz);
                if constexpr (!FULL) {
                  for (int l = 0; l < W; ++l) {
                    if (!p.m[l]) continue;
                    facc.add(std::size_t(j[l]), 0, -fx[l]);
                    facc.add(std::size_t(j[l]), 1, -fy[l]);
                    facc.add(std::size_t(j[l]), 2, -fz[l]);
                  }
                }
                if constexpr (EFLAG) {
                  const pd epair = kk::select(p.m, p.epair, pd(0.0));
                  const pd factor = detail::pair_weight<W, FULL, NEWTON>(
                      j, views.nlocal);
                  ev_local.evdwl += kk::reduce_sum(factor * epair);
                  ev_local.v[0] += kk::reduce_sum(factor * p.dx * fx);
                  ev_local.v[1] += kk::reduce_sum(factor * p.dy * fy);
                  ev_local.v[2] += kk::reduce_sum(factor * p.dz * fz);
                  ev_local.v[3] += kk::reduce_sum(factor * p.dx * fy);
                  ev_local.v[4] += kk::reduce_sum(factor * p.dx * fz);
                  ev_local.v[5] += kk::reduce_sum(factor * p.dy * fz);
                }
              });
          member.team_barrier();
          facc.add(i, 0, fxi);
          facc.add(i, 1, fyi);
          facc.add(i, 2, fzi);
          ev += ev_local;
        },
        total);
  });
  fscatter.contribute();
  return total;
}

/// Full force kernel for every owned row of `list`, dispatched at runtime
/// over list style, newton flag and parallelism. W is the lane width of
/// either kernel: tests and bench_fig2 compare W = 1 with the native width.
template <class Space, int W = kk::native_simd_width, class Functor>
EV pair_compute_dispatch(const std::string& name, Atom& atom,
                         NeighborList& list, const Functor& func,
                         const PairComputeConfig& cfg) {
  const PairViews<Space> views(atom, list);
  const std::size_t n = std::size_t(list.inum);
  const auto launch = [&](auto full, auto newton) {
    if (cfg.parallelism == PairParallelism::Team)
      return pair_compute_team<Space, full, newton, W>(
          name, views, n, func, cfg.scatter, cfg.eflag);
    return pair_compute_rows<Space, full, newton, W>(
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
