// Reproduces Fig. 2: performance effect of neighbor-list options for the
// Lennard-Jones pair kernel on NVIDIA H100 and AMD MI250X.
//   (a) atom-parallel vs hierarchical neighbor-parallel vs atom count
//   (b) half list + atomics vs full list + redundant compute
// Modelled atom-steps/s from workload descriptors whose neighbor statistics
// are measured from the real kernels; a "measured on this CPU" section
// exercises the real code paths for the same variants.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <type_traits>

#include "bench_common.hpp"
#include "kokkos/simd.hpp"
#include "pair/pair_lj_cut_kokkos.hpp"

using namespace mlk;
using namespace mlk::perf;

namespace {

std::unique_ptr<Simulation> lj_system(NeighStyle style, bool newton,
                                      PairParallelism par, int cells) {
  init_all();
  auto sim = std::make_unique<Simulation>();
  sim->thermo.print = false;
  Input in(*sim);
  in.line("units lj");
  in.line("lattice fcc 0.8442");
  const std::string c = std::to_string(cells);
  in.line("create_atoms " + c + " " + c + " " + c + " jitter 0.02 771");
  in.line("mass 1 1.0");
  in.line("pair_style lj/cut/kk 2.5");
  in.line("pair_coeff * * 1.0 1.0");
  auto* pair = dynamic_cast<PairLJCutKokkos<kk::Device>*>(sim->pair.get());
  pair->set_neighbor_mode(style, newton);
  pair->set_parallelism(par);
  sim->setup();
  return sim;
}

double cpu_variant_time(NeighStyle style, bool newton, PairParallelism par,
                        int cells) {
  auto sim = lj_system(style, newton, par, cells);
  return bench::time_seconds([&] { sim->compute_forces(false); }, 5);
}

}  // namespace

int main() {
  bench::Metrics metrics("bench_fig2_lj_options");
  const auto& s = bench::lj_stats();
  std::printf("measured neighbors/atom within cutoff (full list): %.1f\n",
              s.neighbors_per_atom);

  banner("LJ: exposing parallelism over neighbors vs atom count",
         "Figure 2a (H100 red, MI250X blue)");
  {
    Table t({"atoms", "H100 atom-par [Masteps/s]", "H100 team-par",
             "team/atom", "MI250X atom-par", "MI250X team-par", "team/atom"});
    for (bigint n : {bigint(2000), bigint(8000), bigint(32000), bigint(128000),
                     bigint(512000), bigint(2000000), bigint(16000000)}) {
      LJConfig atom_cfg;  // full list, atom-parallel
      LJConfig team_cfg;
      team_cfg.team_parallel = true;
      const GpuModel h100(arch("H100"));
      const GpuModel mi250(arch("MI250X"));
      const double ha = bench::atom_steps_per_second(h100, n, lj_workloads(n, s, atom_cfg)) / 1e6;
      const double ht = bench::atom_steps_per_second(h100, n, lj_workloads(n, s, team_cfg)) / 1e6;
      const double ma = bench::atom_steps_per_second(mi250, n, lj_workloads(n, s, atom_cfg)) / 1e6;
      const double mt = bench::atom_steps_per_second(mi250, n, lj_workloads(n, s, team_cfg)) / 1e6;
      t.add_row({std::to_string(n), Table::num(ha, 1), Table::num(ht, 1),
                 Table::num(ht / ha, 2), Table::num(ma, 1), Table::num(mt, 1),
                 Table::num(mt / ma, 2)});
    }
    t.print();
    std::printf("shape check: team-parallel wins at small N (ratio > 1), "
                "converges at large N\n");
  }

  banner("LJ: full list + redundant compute vs half list + atomics",
         "Figure 2b");
  {
    Table t({"atoms", "H100 full [Masteps/s]", "H100 half+atomics",
             "full/half", "MI250X full", "MI250X half+atomics", "full/half"});
    for (bigint n : {bigint(32000), bigint(128000), bigint(512000),
                     bigint(2000000), bigint(16000000)}) {
      LJConfig full_cfg;
      LJConfig half_cfg;
      half_cfg.full_list = false;
      const GpuModel h100(arch("H100"));
      const GpuModel mi250(arch("MI250X"));
      const double hf = bench::atom_steps_per_second(h100, n, lj_workloads(n, s, full_cfg)) / 1e6;
      const double hh = bench::atom_steps_per_second(h100, n, lj_workloads(n, s, half_cfg)) / 1e6;
      const double mf = bench::atom_steps_per_second(mi250, n, lj_workloads(n, s, full_cfg)) / 1e6;
      const double mh = bench::atom_steps_per_second(mi250, n, lj_workloads(n, s, half_cfg)) / 1e6;
      t.add_row({std::to_string(n), Table::num(hf, 1), Table::num(hh, 1),
                 Table::num(hf / hh, 2), Table::num(mf, 1), Table::num(mh, 1),
                 Table::num(mf / mh, 2)});
    }
    t.print();
    std::printf("shape check: full list wins on GPUs for cheap pair styles "
                "(redundant compute beats thread atomics, section 4.1)\n");
  }

  banner("Real kernels on this CPU (same code paths, small system)",
         "Fig. 2 measured sanity column");
  {
    std::printf("measured paths (widths fixed at compile time): "
                "atom-parallel packs W=%d atoms, team-parallel packs W=%d "
                "neighbors of one atom\n",
                kk::native_simd_width, kk::native_simd_width);
    Table t({"variant", "time/step [ms] (measured)"});
    const double t_full =
        cpu_variant_time(NeighStyle::Full, false, PairParallelism::Atom, 8);
    const double t_half =
        cpu_variant_time(NeighStyle::Half, true, PairParallelism::Atom, 8);
    t.add_row({"full + atom-parallel", Table::num(1e3 * t_full, 3)});
    t.add_row({"full + team-parallel",
               Table::num(1e3 * cpu_variant_time(NeighStyle::Full, false,
                                                 PairParallelism::Team, 8), 3)});
    t.add_row({"half(newton) + atomics", Table::num(1e3 * t_half, 3)});
    t.print();
    std::printf("note: %s list faster here. The half list visits each pair "
                "once but adds every j-side force atomically; the full list "
                "computes each pair twice and adds each row once "
                "(section 4.1)\n",
                t_half < t_full ? "half" : "full");
  }

  banner("LJ atom lanes: W = 1 vs the native width on this CPU "
         "(full + atom-parallel)",
         "docs/VECTORIZATION.md acceptance gate");
  {
    // The kernel every lj/cut/kk force call runs, on the 2048-atom system
    // above, instantiated at W = 1 (the scalar reference) and at the
    // native width.
    auto sim = lj_system(NeighStyle::Full, false, PairParallelism::Atom, 8);
    auto* pair = dynamic_cast<PairLJCutKokkos<kk::Device>*>(sim->pair.get());
    PairComputeConfig cfg;
    cfg.eflag = false;
    const auto force_call = [&](auto width) {
      return [&, width] {
        pair_compute_dispatch<kk::Device, decltype(width)::value>(
            "PairComputeLJCut<Device>", sim->atom, sim->neighbor.list,
            pair->functor(), cfg);
      };
    };
    const auto scalar = force_call(std::integral_constant<int, 1>{});
    const auto lanes =
        force_call(std::integral_constant<int, kk::native_simd_width>{});
    // Best of 15 interleaved calls each, so host drift hits both alike.
    const auto seconds = [](const auto& fn) {
      Timer t;
      fn();
      return t.seconds();
    };
    scalar();
    lanes();
    double t_scalar = 1e300, t_lanes = 1e300;
    for (int r = 0; r < 15; ++r) {
      t_scalar = std::min(t_scalar, seconds(scalar));
      t_lanes = std::min(t_lanes, seconds(lanes));
    }
    const double speedup = t_scalar / t_lanes;

    Table t({"lane width", "time/step [ms] (measured)"});
    t.add_row({"W=1 (scalar reference)", Table::num(1e3 * t_scalar, 3)});
    t.add_row({"W=" + std::to_string(kk::native_simd_width),
               Table::num(1e3 * t_lanes, 3)});
    t.print();
    std::printf("# lane speedup (W=1 / W=%d per force call): %.2fx\n",
                kk::native_simd_width, speedup);
    std::printf("# gate (>= 1.5x native width vs W=1): %s\n",
                speedup >= 1.5 ? "PASS" : "FAIL");

    std::ostringstream os;
    os << "{\"width\":" << kk::native_simd_width
       << ",\"scalar_ms_per_step\":" << 1e3 * t_scalar
       << ",\"simd_ms_per_step\":" << 1e3 * t_lanes
       << ",\"speedup\":" << speedup
       << ",\"gate_1p5x\":" << (speedup >= 1.5 ? "true" : "false") << "}";
    metrics.set_extra("simd", os.str());
  }
  return 0;
}
