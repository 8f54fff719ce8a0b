// Reproduces Fig. 6: strong scaling of the three case studies across the
// exascale machines (Frontier, Aurora, El Capitan) and Alps, up to 8192
// nodes, for several global problem sizes.
//
// Also runs the load-imbalance sweep (docs/DECOMPOSITION.md): the real
// engine on the non-uniform droplet workload, decomposed over 4 simmpi
// ranks, static uniform grid vs `balance rcb` — measured per-rank critical
// path (max-over-ranks Pair+Neigh time; with threads-as-ranks wall clock
// reflects total work, not the critical path a real machine pays) — and
// feeds the measured imbalance into the machine model's imbalance factor.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>

#include "bench_common.hpp"
#include "comm/simmpi.hpp"

using namespace mlk;
using namespace mlk::perf;

namespace {

struct Case {
  const char* potential;
  bigint global_atoms;
  std::function<std::vector<KernelWorkload>(bigint)> workloads;
  double density;     // atoms per A^3 (or sigma^3 for LJ)
  double ghost_cut;   // halo thickness in the same length unit
  double extra_halo_rounds = 0.0;  // QEq: one ghost exchange per CG iter
  double allreduces = 1.0;         // QEq: two dot products per CG iter
};

void run_case(const Case& c) {
  std::printf("\n--- %s, %lld atoms ---\n", c.potential,
              (long long)c.global_atoms);
  Table t({"nodes", "Frontier [steps/s]", "Aurora", "ElCapitan", "Alps",
           "best atoms/GPU"});
  for (int nodes : {8, 32, 128, 512, 2048, 8192}) {
    std::vector<std::string> row = {std::to_string(nodes)};
    double best_apg = 0;
    for (const char* mname : {"Frontier", "Aurora", "ElCapitan", "Alps"}) {
      const Machine& m = machine(mname);
      if (nodes > m.max_nodes) {
        row.push_back("-");
        continue;
      }
      MachineModel model(m);
      const auto pt =
          model.step_time(c.global_atoms, nodes, c.workloads, c.density,
                          c.ghost_cut, 48.0, c.extra_halo_rounds, c.allreduces);
      row.push_back(Table::num(pt.steps_per_second, 1));
      best_apg = pt.atoms_per_gpu;
    }
    row.push_back(Table::num(best_apg, 0));
    t.add_row(row);
  }
  t.print();
}

// --- measured droplet imbalance sweep --------------------------------------

struct DropletResult {
  double critical_ms = 0.0;  // max-over-ranks (Pair+Neigh) per step [ms]
  double imbalance = 1.0;    // max/avg nlocal at run end
  long long nbalances = 0;
};

DropletResult run_droplet(int nranks, int cells, int steps, bool balance) {
  mlk::init_all();
  DropletResult out;
  std::mutex mu;
  double max_bucket = 0.0, max_nlocal = 0.0, sum_nlocal = 0.0;
  simmpi::World world(nranks);
  world.run([&](simmpi::Comm& comm) {
    Simulation sim;
    sim.mpi = &comm;
    sim.thermo.print = false;
    Input in(sim);
    in.line("units lj");
    in.line("lattice fcc 0.8442");
    const std::string c = std::to_string(cells);
    // Droplet: lattice only in the lower corner, the rest vacuum. A static
    // uniform grid leaves one rank holding nearly all atoms.
    in.line("create_atoms " + c + " " + c + " " + c +
            " jitter 0.02 771 region 0 0.55 0 0.55 0 0.55");
    in.line("mass 1 1.0");
    in.line("velocity all create 1.44 87287");
    in.line("suffix kk");
    in.line("pair_style lj/cut 2.5");
    in.line("pair_coeff * * 1.0 1.0");
    in.line("fix 1 all nve");
    in.line("thermo " + std::to_string(steps));
    if (balance) in.line("balance rcb 1.1");

    in.line("run 20");  // warmup: setup, first rebuilds (+ first rebalance)

    sim.allreduce_sum(1.0);
    const double before =
        sim.timers.total(Section::Pair) + sim.timers.total(Section::Neigh);
    in.line("run " + std::to_string(steps));
    sim.allreduce_sum(1.0);
    const double bucket = sim.timers.total(Section::Pair) +
                          sim.timers.total(Section::Neigh) - before;

    std::lock_guard<std::mutex> lk(mu);
    max_bucket = std::max(max_bucket, bucket);
    max_nlocal = std::max(max_nlocal, double(sim.atom.nlocal));
    sum_nlocal += double(sim.atom.nlocal);
    if (comm.rank() == 0) out.nbalances = (long long)sim.balancer.nbalances;
  });
  out.critical_ms = max_bucket * 1e3 / double(steps);
  out.imbalance = sum_nlocal > 0.0
                      ? max_nlocal / (sum_nlocal / double(nranks))
                      : 1.0;
  return out;
}

bool run_imbalance_sweep(bench::Metrics& metrics) {
  banner("Load imbalance: droplet on 4 ranks, static grid vs balance rcb",
         "engine measured + modelled imbalance factor");
  const int nranks = 4, cells = 12, steps = 50;
  std::printf("LJ droplet: fcc in [0,0.55)^3 of a %d^3-cell box (vacuum "
              "elsewhere), %d ranks, %d timed steps\ncritical path = "
              "max-over-ranks Pair+Neigh per step (best of 3)\n\n",
              cells, nranks, steps);

  DropletResult stat, rcb;
  stat.critical_ms = rcb.critical_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {  // interleaved best-of-3
    const DropletResult s = run_droplet(nranks, cells, steps, false);
    const DropletResult b = run_droplet(nranks, cells, steps, true);
    if (s.critical_ms < stat.critical_ms) {
      const long long nb = stat.nbalances;
      stat = s;
      (void)nb;
    }
    if (b.critical_ms < rcb.critical_ms) rcb = b;
  }
  const double speedup = stat.critical_ms / rcb.critical_ms;

  Table t({"decomposition", "imbalance (measured)", "critical path [ms/step]",
           "rebalances"});
  t.add_row({"static uniform grid", Table::num(stat.imbalance, 2),
             Table::num(stat.critical_ms, 3), std::to_string(stat.nbalances)});
  t.add_row({"balance rcb 1.1", Table::num(rcb.imbalance, 2),
             Table::num(rcb.critical_ms, 3), std::to_string(rcb.nbalances)});
  t.print();

  // Feed the measured imbalance into the machine model: same droplet atom
  // count strong-scaled on Frontier with each decomposition's imbalance.
  const auto& lj = bench::lj_stats();
  MachineModel model(machine("Frontier"));
  Table m({"nodes", "Frontier static [steps/s]", "Frontier rcb", "modelled gain"});
  for (int nodes : {8, 32, 128}) {
    const auto ps = model.step_time(
        16000000, nodes, [&](bigint nl) { return lj_workloads(nl, lj); },
        bench::lj_density(), 2.8, 48.0, 0.0, 1.0, stat.imbalance);
    const auto pb = model.step_time(
        16000000, nodes, [&](bigint nl) { return lj_workloads(nl, lj); },
        bench::lj_density(), 2.8, 48.0, 0.0, 1.0, rcb.imbalance);
    m.add_row({std::to_string(nodes), Table::num(ps.steps_per_second, 1),
               Table::num(pb.steps_per_second, 1),
               Table::num(pb.steps_per_second / ps.steps_per_second, 2) + "x"});
  }
  m.print();

  const bool ok = speedup >= 1.3;
  std::printf("\nmeasured critical-path speedup with balance rcb: %.2fx "
              "(gate >= 1.30x): %s\n", speedup, ok ? "yes" : "NO");
  metrics.set_extra(
      "balance_gate",
      "{\"static_imbalance\":" + std::to_string(stat.imbalance) +
          ",\"rcb_imbalance\":" + std::to_string(rcb.imbalance) +
          ",\"static_critical_ms\":" + std::to_string(stat.critical_ms) +
          ",\"rcb_critical_ms\":" + std::to_string(rcb.critical_ms) +
          ",\"speedup\":" + std::to_string(speedup) + "}");
  return ok;
}

}  // namespace

int main() {
  bench::Metrics metrics("bench_fig6_strong_scaling");
  const auto& lj = bench::lj_stats();
  const auto& rx = bench::reaxff_stats();
  const auto& sn = bench::snap_stats();

  banner("Strong scaling on exascale machines", "Figure 6");

  // LJ: reduced units; density 0.8442 sigma^-3, halo = cutoff + skin.
  for (bigint n : {bigint(16000000), bigint(512000000)})
    run_case({"Lennard-Jones", n,
              [&](bigint nl) { return lj_workloads(nl, lj); },
              bench::lj_density(), 2.8});

  // ReaxFF: HNS-like crystal (atoms/A^3), halo = nonbonded cutoff + skin.
  for (bigint n : {bigint(465000), bigint(14880000)})
    run_case({"ReaxFF", n, [&](bigint nl) { return reaxff_workloads(nl, rx); },
              bench::hns_density(), 10.0, rx.qeq_iterations,
              2.0 * rx.qeq_iterations + 1.0});

  // SNAP: bcc W, halo = SNAP cutoff + skin.
  for (bigint n : {bigint(64000), bigint(2048000), bigint(65536000)})
    run_case({"SNAP", n, [&](bigint nl) { return snap_workloads(nl, sn); },
              bench::bcc_density(), 6.7});

  std::printf(
      "\nshape checks (paper section 5.2):\n"
      "  * LJ and SNAP approach ~1000 steps/s with enough nodes\n"
      "  * SNAP scales deepest (low saturation point, high compute hides "
      "launch/comm)\n"
      "  * ReaxFF never exceeds ~100 steps/s on any machine (no saturation "
      "plateau: any extra nodes reduce efficiency immediately)\n"
      "  * machine ordering matches single-GPU ordering (Fig. 5), network "
      "effects subleading\n");

  const bool balance_ok = run_imbalance_sweep(metrics);
  return balance_ok ? 0 : 1;
}
