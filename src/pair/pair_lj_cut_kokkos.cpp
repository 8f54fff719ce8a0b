#include "pair/pair_lj_cut_kokkos.hpp"

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "kokkos/instance.hpp"

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
