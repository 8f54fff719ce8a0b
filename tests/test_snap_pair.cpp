// End-to-end SNAP pair style tests: force-vs-gradient, host-vs-Kokkos
// agreement, batching invariance, energy conservation.
#include <gtest/gtest.h>

#include <cmath>

#include "snap/pair_snap.hpp"
#include "snap/pair_snap_kokkos.hpp"
#include "test_helpers.hpp"
#include "tools/memory_tracker.hpp"

namespace mlk {
namespace {

using testing::numerical_force;
using testing::total_pe;

std::unique_ptr<Simulation> make_snap_system(const std::string& style,
                                             int cells = 3) {
  init_all();
  auto sim = std::make_unique<Simulation>();
  Input in(*sim);
  in.line("units metal");
  in.line("lattice bcc 3.16");  // tungsten-like
  in.line("create_atoms " + std::to_string(cells) + " " +
          std::to_string(cells) + " " + std::to_string(cells) +
          " jitter 0.04 5511");
  in.line("mass 1 183.84");
  in.line("pair_style " + style);
  in.line("pair_coeff * * 4.7 6 7771");  // rcut=4.7 A, twojmax=6
  sim->thermo.print = false;
  return sim;
}

TEST(SNAPHost, ForcesMatchNumericalGradient) {
  auto sim = make_snap_system("snap");
  total_pe(*sim);
  sim->atom.template sync<kk::Host>(F_MASK);
  for (localint i : {0, 7}) {
    for (int d = 0; d < 3; ++d) {
      const double fa = sim->atom.k_f.h_view(std::size_t(i), std::size_t(d));
      const double fn = numerical_force(*sim, i, d, 1e-6);
      EXPECT_NEAR(fa, fn, 2e-4 * std::max(1.0, std::abs(fa)))
          << "atom " << i << " dim " << d;
      sim->atom.template sync<kk::Host>(F_MASK);
    }
  }
}

TEST(SNAPHost, TotalForceIsZero) {
  auto sim = make_snap_system("snap");
  total_pe(*sim);
  // Newton's third law holds after ghost-force reverse communication.
  sim->atom.template sync<kk::Host>(F_MASK);
  double ftot[3] = {0, 0, 0};
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    for (int d = 0; d < 3; ++d)
      ftot[d] += sim->atom.k_f.h_view(std::size_t(i), std::size_t(d));
  for (int d = 0; d < 3; ++d) EXPECT_NEAR(ftot[d], 0.0, 1e-9);
}

TEST(SNAPHost, PerfectLatticeHasZeroForce) {
  init_all();
  auto sim = std::make_unique<Simulation>();
  Input in(*sim);
  in.line("units metal");
  in.line("lattice bcc 3.16");
  in.line("create_atoms 3 3 3");  // no jitter: every site equivalent
  in.line("mass 1 183.84");
  in.line("pair_style snap");
  in.line("pair_coeff * * 4.7 6 7771");
  sim->thermo.print = false;
  total_pe(*sim);
  sim->atom.template sync<kk::Host>(F_MASK);
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    for (int d = 0; d < 3; ++d)
      EXPECT_NEAR(sim->atom.k_f.h_view(std::size_t(i), std::size_t(d)), 0.0,
                  1e-9);
}

template <class Space>
void expect_matches_host(int ui_batch) {
  auto ref = make_snap_system("snap");
  const double e_ref = total_pe(*ref);
  ref->atom.sync<kk::Host>(F_MASK);

  auto sim = make_snap_system(Space::is_device ? "snap/kk" : "snap/kk/host");
  auto* pair = dynamic_cast<PairSNAPKokkos<Space>*>(sim->pair.get());
  ASSERT_NE(pair, nullptr);
  pair->set_ui_batch(ui_batch);
  const double e = total_pe(*sim);
  EXPECT_NEAR(e, e_ref, 1e-9 * std::max(1.0, std::abs(e_ref)));

  sim->atom.template sync<kk::Host>(F_MASK);
  for (localint i = 0; i < sim->atom.nlocal; ++i)
    for (int d = 0; d < 3; ++d)
      EXPECT_NEAR(sim->atom.k_f.h_view(std::size_t(i), std::size_t(d)),
                  ref->atom.k_f.h_view(std::size_t(i), std::size_t(d)), 1e-8)
          << "atom " << i << " dim " << d;
  for (int k = 0; k < 6; ++k)
    EXPECT_NEAR(sim->pair->virial[k], ref->pair->virial[k],
                1e-7 * std::max(1.0, std::abs(ref->pair->virial[k])));
}

TEST(SNAPKokkos, DeviceMatchesHostBatch1) {
  expect_matches_host<kk::Device>(1);
}
TEST(SNAPKokkos, DeviceMatchesHostBatch2) {
  expect_matches_host<kk::Device>(2);
}
TEST(SNAPKokkos, DeviceMatchesHostBatch4) {
  expect_matches_host<kk::Device>(4);
}
TEST(SNAPKokkos, HostSpaceMatches) { expect_matches_host<kk::Host>(4); }

TEST(SNAPKokkos, StagedViewsAreReusedAcrossForceCalls) {
  // The staged neighbor tables and per-atom U/Y rows persist across force
  // calls: after the first one, a run of snap/kk steps allocates no Device
  // memory.
  auto sim = make_snap_system("snap/kk");
  Input in(*sim);
  in.line("velocity all create 600.0 9182");
  in.line("timestep 0.0005");
  in.line("fix 1 all nve/kk");
  in.line("thermo 5");
  auto mem = std::make_shared<tools::MemorySpaceTracker>();
  kk::profiling::register_tool(mem);
  in.line("run 1");
  const auto device_allocs = [&] {
    const auto stats = mem->stats();
    const auto it = stats.find("Device");
    return it == stats.end() ? std::uint64_t(0) : it->second.alloc_count;
  };
  const std::uint64_t after_first = device_allocs();
  EXPECT_GT(after_first, 0u);
  in.line("run 20");
  EXPECT_EQ(device_allocs(), after_first);
  kk::profiling::deregister_tool(mem);
}

TEST(SNAPKokkos, BatchingChangesNothingNumerically) {
  // Table 2's knobs are performance-only: results identical across batch
  // factors (up to atomics ordering, which the serial-team emulation makes
  // deterministic per configuration).
  auto run = [&](int batch) {
    auto sim = make_snap_system("snap/kk");
    auto* pair = dynamic_cast<PairSNAPKokkos<kk::Device>*>(sim->pair.get());
    pair->set_ui_batch(batch);
    return total_pe(*sim);
  };
  const double e1 = run(1);
  const double e2 = run(2);
  const double e8 = run(8);
  EXPECT_NEAR(e1, e2, 1e-10 * std::abs(e1));
  EXPECT_NEAR(e1, e8, 1e-10 * std::abs(e1));
}

void expect_nve_conserves_energy(const std::string& style,
                                 const std::string& fix) {
  auto sim = make_snap_system(style, 3);
  Input in(*sim);
  in.line("velocity all create 600.0 9182");
  in.line("timestep 0.0005");
  in.line("fix 1 all " + fix);
  in.line("thermo 5");
  in.line("run 30");
  const auto& rows = sim->thermo.rows();
  const double e0 = rows.front().etotal;
  for (const auto& r : rows)
    EXPECT_NEAR(r.etotal, e0, 5e-4 * std::max(1.0, std::abs(e0)))
        << style << " step " << r.step;
}

TEST(SNAP, EnergyConservedInNVE) { expect_nve_conserves_energy("snap", "nve"); }

TEST(SNAPKokkos, EnergyConservedInNVE) {
  expect_nve_conserves_energy("snap/kk", "nve/kk");
}

TEST(SNAP, BispectrumFeedsEnergyLinearly) {
  // E is linear in beta: scaling beta scales E exactly.
  auto sim = make_snap_system("snap");
  auto* pair = dynamic_cast<PairSNAP*>(sim->pair.get());
  ASSERT_NE(pair, nullptr);
  const double e1 = total_pe(*sim);
  auto beta = pair->beta();
  for (double& b : beta) b *= 2.0;
  pair->set_beta(beta);
  const double e2 = total_pe(*sim);
  EXPECT_NEAR(e2, 2.0 * e1, 1e-9 * std::abs(e1));
}

}  // namespace
}  // namespace mlk
