// End-to-end SNAP pair style tests: force-vs-gradient, Kokkos-vs-reference
// agreement (bitwise on one pool participant), energy conservation.
#include <gtest/gtest.h>

#include <cmath>
#include <array>
#include <cstring>
#include <map>

#include "snap/pair_snap.hpp"
#include "snap/pair_snap_kokkos.hpp"
#include "test_helpers.hpp"
#include "tools/memory_tracker.hpp"

namespace mlk {
namespace {

using testing::numerical_force;
using testing::on_one_participant;
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

/// One force evaluation: owned-row forces, energy and virial.
struct ForceResult {
  std::vector<double> f;
  double energy = 0.0;
  double virial[6] = {0, 0, 0, 0, 0, 0};
};

ForceResult evaluate(Simulation& sim) {
  ForceResult r;
  r.energy = total_pe(sim);
  sim.atom.sync<kk::Host>(F_MASK);
  for (localint i = 0; i < sim.atom.nlocal; ++i)
    for (std::size_t d = 0; d < 3; ++d)
      r.f.push_back(sim.atom.k_f.h_view(std::size_t(i), d));
  std::memcpy(r.virial, sim.pair->virial, sizeof(r.virial));
  return r;
}

/// The Kokkos style on Space against plain `snap`, byte for byte. Every
/// launch runs on one pool participant, so atomic adds and reduction
/// partials land in program order.
template <class Space>
void expect_bitwise_reference() {
  auto ref = make_snap_system("snap");
  const ForceResult want = evaluate(*ref);
  auto sim = make_snap_system(Space::is_device ? "snap/kk" : "snap/kk/host");
  ASSERT_NE(dynamic_cast<PairSNAPKokkos<Space>*>(sim->pair.get()), nullptr);
  ForceResult got;
  on_one_participant<Space>([&] { got = evaluate(*sim); });

  ASSERT_EQ(got.f.size(), want.f.size());
  std::size_t differ = 0;
  for (std::size_t k = 0; k < want.f.size(); ++k)
    if (std::memcmp(&got.f[k], &want.f[k], sizeof(double)) != 0) ++differ;
  EXPECT_EQ(differ, 0u) << "of " << want.f.size() << " force components";
  EXPECT_EQ(std::memcmp(&got.energy, &want.energy, sizeof(double)), 0)
      << got.energy << " vs " << want.energy;
  EXPECT_EQ(std::memcmp(got.virial, want.virial, sizeof(got.virial)), 0);
}

TEST(SNAPKokkos, HostSpaceMatches) { expect_bitwise_reference<kk::Host>(); }

TEST(SNAPKokkos, DeviceMatchesReferenceOnOneParticipant) {
  expect_bitwise_reference<kk::Device>();
}

TEST(SNAPKokkos, DeviceMatchesReferenceOnFullPool) {
  // On the whole pool the force atomics land in a varying order, so only
  // rounding-level agreement holds.
  auto ref = make_snap_system("snap");
  const ForceResult want = evaluate(*ref);
  auto sim = make_snap_system("snap/kk");
  const ForceResult got = evaluate(*sim);
  EXPECT_NEAR(got.energy, want.energy,
              1e-9 * std::max(1.0, std::abs(want.energy)));
  ASSERT_EQ(got.f.size(), want.f.size());
  for (std::size_t k = 0; k < want.f.size(); ++k)
    EXPECT_NEAR(got.f[k], want.f[k], 1e-8) << "component " << k;
  for (int k = 0; k < 6; ++k)
    EXPECT_NEAR(got.virial[k], want.virial[k],
                1e-7 * std::max(1.0, std::abs(want.virial[k])));
}

/// Positions and velocities by atom tag.
using Trajectory = std::map<tagint, std::array<double, 6>>;

/// The trajectory's end point after 30 NVE steps of `style`.
Trajectory nve_trajectory(const std::string& style) {
  auto sim = make_snap_system(style);
  Input in(*sim);
  in.line("velocity all create 600.0 9182");
  in.line("timestep 0.0005");
  in.line("fix 1 all nve");
  in.line("thermo 10");
  in.line("run 30");
  Atom& atom = sim->atom;
  atom.sync<kk::Host>(X_MASK | V_MASK | TAG_MASK);
  Trajectory out;
  for (localint i = 0; i < atom.nlocal; ++i) {
    auto& row = out[atom.k_tag.h_view(std::size_t(i))];
    for (std::size_t d = 0; d < 3; ++d) {
      row[d] = atom.k_x.h_view(std::size_t(i), d);
      row[3 + d] = atom.k_v.h_view(std::size_t(i), d);
    }
  }
  return out;
}

void expect_same_trajectory(const Trajectory& got, const Trajectory& want) {
  ASSERT_EQ(got.size(), want.size());
  std::size_t differ = 0;
  for (const auto& [tag, row] : want) {
    const auto it = got.find(tag);
    ASSERT_NE(it, got.end()) << "tag " << tag;
    if (std::memcmp(row.data(), it->second.data(), sizeof(row)) != 0) ++differ;
  }
  EXPECT_EQ(differ, 0u) << "of " << want.size() << " atoms differ in x or v";
}

TEST(SNAPKokkos, HostTrajectoryBitwiseMatchesReference) {
  expect_same_trajectory(nve_trajectory("snap/kk/host"),
                         nve_trajectory("snap"));
}

TEST(SNAPKokkos, DeviceTrajectoryBitwiseMatchesReferenceOnOneParticipant) {
  Trajectory got;
  on_one_participant<kk::Device>([&] { got = nve_trajectory("snap/kk"); });
  expect_same_trajectory(got, nve_trajectory("snap"));
}

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
