#include "engine/fix_nve.hpp"

#include "engine/simulation.hpp"
#include "engine/style_registry.hpp"
#include "kokkos/core.hpp"

namespace mlk {

template <class Space>
void FixNVEKokkos<Space>::initial_integrate(Simulation& sim) {
  Atom& a = sim.atom;
  a.sync<Space>(X_MASK | V_MASK | F_MASK | TYPE_MASK);
  a.k_mass.sync<Space>();
  auto x = a.k_x.view<Space>();
  auto v = a.k_v.view<Space>();
  auto f = a.k_f.view<Space>();
  auto type = a.k_type.view<Space>();
  auto mass = a.k_mass.view<Space>();
  const double dt = sim.dt;
  const double dtf = 0.5 * dt * sim.units.ftm2v;
  kk::parallel_for(
      "FixNVEKokkos::initial_integrate",
      kk::RangePolicy<Space>(0, std::size_t(a.nlocal)), [=](std::size_t i) {
        const double dtfm = dtf / mass(std::size_t(type(i)));
        for (std::size_t d = 0; d < 3; ++d) {
          v(i, d) += dtfm * f(i, d);
          x(i, d) += dt * v(i, d);
        }
      });
  a.modified<Space>(X_MASK | V_MASK);
}

template <class Space>
void FixNVEKokkos<Space>::final_integrate(Simulation& sim) {
  Atom& a = sim.atom;
  a.sync<Space>(V_MASK | F_MASK | TYPE_MASK);
  a.k_mass.sync<Space>();
  auto v = a.k_v.view<Space>();
  auto f = a.k_f.view<Space>();
  auto type = a.k_type.view<Space>();
  auto mass = a.k_mass.view<Space>();
  const double dtf = 0.5 * sim.dt * sim.units.ftm2v;
  kk::parallel_for("FixNVEKokkos::final_integrate",
                   kk::RangePolicy<Space>(0, std::size_t(a.nlocal)),
                   [=](std::size_t i) {
                     const double dtfm = dtf / mass(std::size_t(type(i)));
                     for (std::size_t d = 0; d < 3; ++d) v(i, d) += dtfm * f(i, d);
                   });
  a.modified<Space>(V_MASK);
}

template class FixNVEKokkos<kk::Host>;
template class FixNVEKokkos<kk::Device>;

void register_fix_nve() {
  auto& reg = StyleRegistry::instance();
  reg.add_fix("nve", [](ExecSpaceKind) -> std::unique_ptr<Fix> {
    return std::make_unique<FixNVEKokkos<kk::Host>>();
  });
  reg.add_fix_kokkos("nve", [](ExecSpaceKind space) -> std::unique_ptr<Fix> {
    if (space == ExecSpaceKind::Host)
      return std::make_unique<FixNVEKokkos<kk::Host>>();
    return std::make_unique<FixNVEKokkos<kk::Device>>();
  });
}

}  // namespace mlk
