// Batch-server demo (docs/SERVER.md): submit four independent LJ melt jobs
// of different sizes/temperatures to the scheduler, let it multiplex them
// over the shared device in lockstep rounds, then verify each job completed
// with sane, energy-conserving thermo output.
//
// Exits 0 and prints "server demo: OK" on success — run_tier1.sh --server
// and the server_smoke ctest entry key off that.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "minilammps.hpp"
#include "server/scheduler.hpp"

using namespace mlk;
using namespace mlk::server;

namespace {

JobSpec melt_job(const std::string& name, int cells, double temp,
                 bigint steps) {
  const std::string c = std::to_string(cells);
  JobSpec spec;
  spec.name = name;
  spec.setup = {
      "units lj",
      "lattice fcc 0.8442",
      "create_atoms " + c + " " + c + " " + c + " jitter 0.05 78123",
      "mass 1 1.0",
      "velocity all create " + std::to_string(temp) + " 87287",
      "suffix kk",
      "pair_style lj/cut 2.5",
      "pair_coeff * * 1.0 1.0",
      "neighbor 0.3 bin",
      "neigh_modify every 10 check no",
      "fix 1 all nve",
      "thermo 10",
  };
  spec.steps = steps;
  return spec;
}

}  // namespace

int main() {
  init_all();

  JobQueue queue;
  queue.submit(melt_job("melt-3-hot", 3, 1.44, 50));
  queue.submit(melt_job("melt-3-cold", 3, 0.70, 50));
  queue.submit(melt_job("melt-4-warm", 4, 1.00, 50));
  queue.submit(melt_job("melt-3-mid", 3, 1.10, 50));
  queue.close();

  SchedulerConfig cfg;
  cfg.max_resident = 4;
  Scheduler scheduler(queue, cfg);
  scheduler.run();

  int failures = 0;
  for (const JobResult& r : scheduler.results()) {
    if (r.state != JobState::Completed) {
      std::printf("job %d '%s': %s (%s)\n", r.id, r.name.c_str(),
                  to_string(r.state), r.error.c_str());
      ++failures;
      continue;
    }
    const ThermoRow& first = r.thermo.front();
    const ThermoRow& last = r.thermo.back();
    const double drift = std::abs(last.etotal - first.etotal);
    const double tol = 1e-2 * std::max(1.0, std::abs(first.etotal));
    std::printf(
        "job %d '%s': %lld steps, finish_order %d, etotal %+.6f -> %+.6f\n",
        r.id, r.name.c_str(), static_cast<long long>(r.steps_done),
        r.finish_order, first.etotal, last.etotal);
    if (r.steps_done != 50 || last.step != 50) {
      std::printf("  FAIL: expected 50 steps\n");
      ++failures;
    }
    if (!(drift <= tol)) {
      std::printf("  FAIL: energy drift %.3g exceeds %.3g\n", drift, tol);
      ++failures;
    }
  }

  const auto& s = scheduler.stats();
  std::printf("scheduler: %lld rounds, %lld job-steps\n",
              static_cast<long long>(s.rounds),
              static_cast<long long>(s.steps));

  if (failures > 0) {
    std::printf("server demo: FAILED (%d)\n", failures);
    return 1;
  }
  std::printf("server demo: OK\n");
  return 0;
}
