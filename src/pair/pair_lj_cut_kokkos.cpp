#include "pair/pair_lj_cut_kokkos.hpp"

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "kokkos/instance.hpp"
#include "pair/pair_batch.hpp"

namespace mlk {

template <class Space>
PairLJCutKokkos<Space>::PairLJCutKokkos() {
  style_name = "lj/cut/kk";
  execution_space =
      Space::is_device ? ExecSpaceKind::Device : ExecSpaceKind::Host;
  // Paper §4.1 defaults: full list + newton off on GPUs (redundant compute
  // beats atomics for cheap pair styles); half + newton on for CPUs.
  if (Space::is_device) {
    cfg_.neigh = NeighStyle::Full;
    cfg_.newton = false;
    cfg_.scatter = kk::ScatterMode::Atomic;
  } else {
    cfg_.neigh = NeighStyle::Half;
    cfg_.newton = true;
    cfg_.scatter = kk::ScatterMode::Sequential;
  }
}

template <class Space>
void PairLJCutKokkos<Space>::init(Simulation& sim) {
  PairLJCut::init(sim);
  // Coefficient tables were filled on the host; hand copies to the functor.
  // (Host-resident Views stand in for device mirrors; layout polymorphism is
  // exercised by the atom/neighbor DualViews.)
  functor_.d_cutsq = cutsq_;
  functor_.d_lj1 = lj1_;
  functor_.d_lj2 = lj2_;
  functor_.d_lj3 = lj3_;
  functor_.d_lj4 = lj4_;
}

template <class Space>
void PairLJCutKokkos<Space>::compute(Simulation& sim, bool eflag) {
  reset_accumulators();
  cfg_.eflag = eflag;
  const EV ev = pair_compute_dispatch<Space>(
      std::string("PairComputeLJCut<") + Space::name() + ">", sim.atom,
      sim.neighbor.list, functor_, cfg_);
  eng_vdwl = ev.evdwl;
  eng_coul = ev.ecoul;
  for (int k = 0; k < 6; ++k) virial[k] = ev.v[k];
}

template <class Space>
bool PairLJCutKokkos<Space>::supports_overlap(const NeighborList& list) const {
  // The split needs a full list computed atom-parallel: each owned row's
  // force is then one complete accumulation independent of every other row,
  // so interior rows started before the halo exchange produce bitwise the
  // same forces as the fused kernel. Half lists fold ghost forces back and
  // cannot start early. The partition must also be *valid* for this list
  // (ninterior + nboundary == inum): a builder that skipped the partition
  // would otherwise make the split silently compute forces from stale or
  // empty row sets.
  return list.style == NeighStyle::Full &&
         cfg_.parallelism == PairParallelism::Atom && !needs_reverse_comm &&
         list.ninterior + list.nboundary == list.inum;
}

template <class Space>
void PairLJCutKokkos<Space>::compute_interior(Simulation& sim, bool eflag,
                                              kk::DeviceInstance& instance) {
  reset_accumulators();
  cfg_.eflag = eflag;
  ev_interior_ = EV{};

  Atom& atom = sim.atom;
  NeighborList& l = sim.neighbor.list;
  // All DualView flag bookkeeping happens here on the caller thread; the
  // async task below touches only the raw views captured after the syncs
  // (docs/EXECUTION_MODEL.md: "flags stay on the submitting thread").
  atom.zero_forces<Space>();
  const PairViews<Space> views(atom, l);
  l.k_interior.sync<Space>();
  const auto interior = l.k_interior.template view<Space>();
  const std::size_t nsub = std::size_t(l.ninterior);
  const LJFunctor func = functor_;
  const kk::ScatterMode scatter = cfg_.scatter;
  EV* out = &ev_interior_;

  const std::string name =
      std::string("PairComputeLJCut<") + Space::name() + ">::interior";
  instance.enqueue(name, [=] {
    *out = pair_compute_rows<Space, true, false>(name, views, interior, nsub,
                                                 func, scatter, eflag);
  });
  atom.template modified<Space>(F_MASK);
}

template <class Space>
void PairLJCutKokkos<Space>::compute_boundary(Simulation& sim, bool eflag) {
  NeighborList& l = sim.neighbor.list;
  // Picks up the freshly exchanged ghost rows of x.
  const PairViews<Space> views(sim.atom, l);
  l.k_boundary.sync<Space>();
  const EV ev_boundary = pair_compute_rows<Space, true, false>(
      std::string("PairComputeLJCut<") + Space::name() + ">::boundary", views,
      l.k_boundary.template view<Space>(), std::size_t(l.nboundary), functor_,
      cfg_.scatter, eflag);
  sim.atom.template modified<Space>(F_MASK);

  // ev_interior_ is defined: the engine fenced the interior instance before
  // calling compute_boundary.
  eng_vdwl = ev_interior_.evdwl + ev_boundary.evdwl;
  eng_coul = ev_interior_.ecoul + ev_boundary.ecoul;
  for (int k = 0; k < 6; ++k)
    virial[k] = ev_interior_.v[k] + ev_boundary.v[k];
}

template <class Space>
std::string PairLJCutKokkos<Space>::batch_signature(const Simulation& sim,
                                                    bool eflag) const {
  // Fusable only when the solo path would be a plain parallel_for whose
  // rows are independent and write just their own atom:
  //   * no tallies — eflag reductions join per-rank partials in rank order,
  //     so fusing them would change the summation order vs. solo;
  //   * full list + atom parallelism — row i accumulates into atom i only
  //     (detail::pair_row<FULL> never scatters to j), which is what makes
  //     the fused launch bitwise-identical under any row partitioning;
  //   * atomic scatter — duplicated/sequential modes assume the launch
  //     shape the solo kernel would have had;
  //   * no ghost-force fold-back.
  if (eflag) return "";
  if (cfg_.neigh != NeighStyle::Full ||
      cfg_.parallelism != PairParallelism::Atom ||
      cfg_.scatter != kk::ScatterMode::Atomic || needs_reverse_comm)
    return "";
  if (sim.neighbor.list.style != NeighStyle::Full) return "";
  // Structural signature: any two LJ jobs in this configuration can share a
  // launch (coefficients and cutoffs are per-slice captures, not shape).
  return std::string("pairwise/full/atom/atomic/") + Space::name();
}

template <class Space>
void PairLJCutKokkos<Space>::batch_enlist(Simulation& sim, bool eflag,
                                          PairBatch& batch) {
  (void)eflag;  // only no-tally steps enlist (batch_signature refuses eflag)
  reset_accumulators();
  cfg_.eflag = false;

  // Same threading contract as compute_interior: every DualView sync runs
  // here on the calling thread; the fused kernel touches only the raw views.
  // The solo path syncs F then zeroes it (Atom::zero_forces) — replicated
  // here by syncing at enlistment and zeroing inside the fused kernel, so
  // both paths leave bitwise-identical state.
  const PairViews<Space> views(sim.atom, sim.neighbor.list);
  const std::size_t nforce = std::size_t(sim.neighbor.list.inum);
  const LJFunctor func = functor_;

  // Per-job ScatterView (Atomic: adds land directly in this job's force
  // array). Heap-owned so it outlives enlistment; the epilogue keeps the
  // shared_ptr alive through the launch and runs contribute afterwards.
  auto fscatter = std::make_shared<kk::ScatterView<double, 2, Space>>(
      views.f, cfg_.scatter);
  const auto facc = fscatter->access();

  PairBatch::Slice s;
  s.label = std::string("PairComputeLJCut<") + Space::name() + ">";
  const bool use_simd = kk::simd_enabled();
  if (use_simd) kk::simdstats::count_launch(s.label + "::batch");
  // Row space covers all nall force rows: rows < inum zero their own atom
  // then run the solo kernel's row body (its adds land on the freshly
  // zeroed entry, exactly the value the solo zero-kernel + force-kernel
  // sequence produces); ghost rows only zero. No row reads f, so zeroing
  // needs no barrier against the force work of other rows.
  s.rows = std::size_t(sim.atom.nall());
  s.row = [=](std::size_t i) {
    views.f(i, 0) = 0.0;
    views.f(i, 1) = 0.0;
    views.f(i, 2) = 0.0;
    if (i >= nforce) return;
    EV unused;
    detail::pair_row<true, false>(views, facc, func, i, use_simd,
                                  /*eflag=*/false, unused);
  };
  s.epilogue = [fscatter] { fscatter->contribute(); };
  batch.add(std::move(s));
  sim.atom.template modified<Space>(F_MASK);
}

template class PairLJCutKokkos<kk::Host>;
template class PairLJCutKokkos<kk::Device>;

void register_pair_lj_cut_kokkos() {
  StyleRegistry::instance().add_pair_kokkos(
      "lj/cut", [](ExecSpaceKind space) -> std::unique_ptr<Pair> {
        if (space == ExecSpaceKind::Host)
          return std::make_unique<PairLJCutKokkos<kk::Host>>();
        return std::make_unique<PairLJCutKokkos<kk::Device>>();
      });
}

}  // namespace mlk
