// pair_style snap/kk — Kokkos SNAP, dual-instantiated (Host + Device).
// Wraps the SNAKokkos kernel pipeline: stage -> ComputeUi -> (Zi+Bi for
// energy) -> ComputeYi -> ComputeFusedDeidrj.
#pragma once

#include <memory>

#include "snap/pair_snap.hpp"
#include "snap/sna_kernels.hpp"

namespace mlk {

template <class Space>
class PairSNAPKokkos : public PairSNAP {
 public:
  PairSNAPKokkos();
  void init(Simulation& sim) override;
  void compute(Simulation& sim, bool eflag) override;

  snap::SNAKokkos<Space>* kernels() { return snakk_.get(); }

 private:
  std::unique_ptr<snap::SNAKokkos<Space>> snakk_;
};

void register_pair_snap_kokkos();

}  // namespace mlk
