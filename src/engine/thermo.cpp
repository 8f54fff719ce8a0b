#include "engine/thermo.hpp"

#include <cstdio>

#include "engine/simulation.hpp"
#include "tools/telemetry/telemetry.hpp"

namespace mlk {

void Thermo::header() const {
  if (!print) return;
  std::printf("%10s %12s %14s %14s %14s %12s\n", "Step", "Temp", "PotEng",
              "KinEng", "TotEng", "Press");
}

void Thermo::record(Simulation& sim) {
  ThermoRow row;
  row.step = sim.ntimestep;
  row.temp = sim.temperature();
  row.pe = sim.potential_energy();
  row.ke = sim.kinetic_energy();
  row.etotal = row.pe + row.ke;
  row.press = sim.pressure();
  rows_.push_back(row);

  // Live telemetry: mirror the row into the sim's thermo ring (wait-free).
  if (sim.telemetry && tools::telemetry::active()) {
    tools::telemetry::ThermoSample ts;
    ts.step = row.step;
    ts.job_id = sim.telemetry_job_id;
    ts.temp = row.temp;
    ts.pe = row.pe;
    ts.ke = row.ke;
    ts.press = row.press;
    sim.telemetry->thermo.push(ts);
  }

  const bool is_rank0 = sim.mpi == nullptr || sim.mpi->rank() == 0;
  if (print && is_rank0)
    std::printf("%10lld %12.6g %14.8g %14.8g %14.8g %12.6g\n",
                static_cast<long long>(row.step), row.temp, row.pe, row.ke,
                row.etotal, row.press);
}

void Thermo::breakdown(Simulation& sim, double loop_seconds, bigint nsteps,
                       const TimerSet& run, const NeighSummary& neigh,
                       const BalanceSummary& balance) const {
  const bool is_rank0 = sim.mpi == nullptr || sim.mpi->rank() == 0;
  if (!print || !is_rank0 || nsteps <= 0) return;

  const double per_step_ms = 1e3 / double(nsteps);
  const double pct = loop_seconds > 0.0 ? 100.0 / loop_seconds : 0.0;

  std::printf("\nLoop time of %g s for %lld steps (%g ms/step)\n\n",
              loop_seconds, static_cast<long long>(nsteps),
              loop_seconds * per_step_ms);
  std::printf("%-8s | %12s | %7s | %14s\n", "Section", "time (s)", "%loop",
              "per-step (ms)");
  std::printf("---------+--------------+---------+---------------\n");
  double accounted = 0.0;
  for (std::size_t k = 0; k < kNumSections; ++k) {
    const double t = run.total(Section(k));
    accounted += t;
    std::printf("%-8s | %12.6f | %6.2f%% | %14.6f\n", kSectionNames[k], t,
                t * pct, t * per_step_ms);
  }
  const double other = loop_seconds > accounted ? loop_seconds - accounted : 0.0;
  std::printf("%-8s | %12.6f | %6.2f%% | %14.6f\n", "Other", other,
              other * pct, other * per_step_ms);

  // LAMMPS-style neighbor maintenance summary. Dangerous builds (the
  // distance check fired on the first step every/delay allowed) mean the
  // run computed forces from a stale list — raise `every`/`delay` caution.
  std::printf("\nNeighbor builds: %lld  dangerous: %lld  retries: %lld\n",
              static_cast<long long>(neigh.builds),
              static_cast<long long>(neigh.dangerous),
              static_cast<long long>(neigh.retries));

  // Per-rank atom imbalance (max/avg nlocal at run end): the load-balance
  // health metric `balance rcb` targets. Only meaningful with > 1 rank, but
  // the rebalance/sort counters print whenever those features ran.
  if (balance.avg_atoms > 0.0 &&
      (sim.mpi != nullptr || balance.nbalances > 0 || balance.nsorts > 0)) {
    std::printf(
        "Atom imbalance: %.3f max/avg (max %.0f min %.0f avg %.1f)  "
        "rebalances: %lld  sorts: %lld\n",
        balance.max_atoms / balance.avg_atoms, balance.max_atoms,
        balance.min_atoms, balance.avg_atoms,
        static_cast<long long>(balance.nbalances),
        static_cast<long long>(balance.nsorts));
  }
}

}  // namespace mlk
