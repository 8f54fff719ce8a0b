// fix nve — microcanonical velocity-Verlet integration.
//
// FixNVEKokkos is templated on the execution space and dual-instantiated
// (Host + Device), selectable as nve/kk, nve/kk/host, nve/kk/device (§3.3);
// plain `nve` is the Host instantiation.
#pragma once

#include "engine/fix.hpp"
#include "engine/pair.hpp"

namespace mlk {

template <class Space>
class FixNVEKokkos : public Fix {
 public:
  void initial_integrate(Simulation& sim) override;
  void final_integrate(Simulation& sim) override;
};

void register_fix_nve();

}  // namespace mlk
