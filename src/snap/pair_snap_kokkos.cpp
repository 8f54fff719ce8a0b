#include "snap/pair_snap_kokkos.hpp"

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "util/error.hpp"

namespace mlk {

template <class Space>
PairSNAPKokkos<Space>::PairSNAPKokkos() {
  style_name = "snap/kk";
  execution_space =
      Space::is_device ? ExecSpaceKind::Device : ExecSpaceKind::Host;
  needs_reverse_comm = true;
}

template <class Space>
void PairSNAPKokkos<Space>::init(Simulation& sim) {
  PairSNAP::init(sim);
  snakk_ = std::make_unique<snap::SNAKokkos<Space>>(params_);
}

template <class Space>
void PairSNAPKokkos<Space>::compute(Simulation& sim, bool eflag) {
  reset_accumulators();
  require(snakk_ != nullptr, "snap/kk: init not called");
  auto& ker = *snakk_;

  ker.stage_neighbors(sim.atom, sim.neighbor.list);
  ker.compute_ui();
  if (eflag) eng_vdwl = ker.compute_zi_bi_energy(beta_.data());
  ker.compute_yi(beta_.data());
  ker.compute_fused_deidrj(sim.atom, virial);
  if (!eflag)
    for (double& v : virial) v = 0.0;
}

template class PairSNAPKokkos<kk::Host>;
template class PairSNAPKokkos<kk::Device>;

void register_pair_snap_kokkos() {
  StyleRegistry::instance().add_pair_kokkos(
      "snap", [](ExecSpaceKind space) -> std::unique_ptr<Pair> {
        if (space == ExecSpaceKind::Host)
          return std::make_unique<PairSNAPKokkos<kk::Host>>();
        return std::make_unique<PairSNAPKokkos<kk::Device>>();
      });
}

}  // namespace mlk
