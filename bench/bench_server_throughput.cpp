// Batch-server throughput (docs/SERVER.md): jobs/sec for N independent
// small LJ melt jobs driven two ways —
//
//   naive       one Simulation at a time, sequentially (the no-server
//               baseline a queue of scripts would get);
//   coscheduled the scheduler's lockstep rounds: each round advances every
//               resident job by one step, inline on the scheduler thread
//               (fan-out off, as in perfbench's server_cohort).
//
// Small jobs are the launch-overhead regime: per step a job pays a
// zero-forces launch plus a force launch for a few dozen atoms. Each pass
// times both modes back to back, so slow phases of the shared host hit both
// alike; the bench prints each mode's median and quartiles over the passes
// and the pool size they ran on (MLK_NUM_THREADS, default
// hardware_concurrency). The only gate is correctness: exit 1 when any
// co-scheduled job's final state differs bitwise from its solo run.
//
// Measured wall-clock only — no modelled columns; jobs/sec is the product.
// With MLK_BENCH_METRICS set, writes BENCH_server.json (summary) next to
// the standard per-kernel bench_server_throughput.metrics.json.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "kokkos/threadpool.hpp"
#include "server/scheduler.hpp"

using namespace mlk;
using namespace mlk::server;

namespace {

constexpr int kJobs = 8;
constexpr bigint kSteps = 100;
constexpr int kPasses = 7;

JobSpec melt_job(int i) {
  JobSpec spec;
  spec.name = "melt-" + std::to_string(i);
  // Identical lattice, per-job temperature/seed: different trajectories and
  // neighbor lists.
  const double temp = 0.7 + 0.1 * i;
  spec.setup = {
      "units lj",
      "lattice fcc 0.8442",
      "create_atoms 2 2 2 jitter 0.05 78123",
      "mass 1 1.0",
      "velocity all create " + std::to_string(temp) + " " +
          std::to_string(87287 + i),
      "suffix kk",
      "pair_style lj/cut 1.3",
      "pair_coeff * * 1.0 1.0",
      "neighbor 0.3 bin",
      "neigh_modify every 20 check no",
      "fix 1 all nve",
      "thermo 50",
  };
  spec.steps = kSteps;
  return spec;
}

/// The no-server baseline: run each job's script to completion, one after
/// another, through the plain Verlet loop.
std::vector<std::vector<double>> run_naive(const std::vector<JobSpec>& specs) {
  std::vector<std::vector<double>> states;
  for (const JobSpec& spec : specs) {
    Simulation sim;
    Input in(sim);
    sim.thermo.print = false;
    for (const std::string& line : spec.setup) in.line(line);
    sim.run(spec.steps);
    states.push_back(capture_state(sim));
  }
  return states;
}

struct Spread {
  double q1, median, q3;
};

/// Quartiles, interpolating linearly between order statistics.
Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double pos = p * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

}  // namespace

int main() {
  init_all();
  bench::Metrics metrics("bench_server_throughput");
  const int pool = kk::ThreadPool::instance().size();

  std::vector<JobSpec> specs;
  for (int i = 0; i < kJobs; ++i) specs.push_back(melt_job(i));

  // Reference states (also warms the pool and style caches).
  const std::vector<std::vector<double>> solo = run_naive(specs);

  SchedulerConfig cfg;
  cfg.max_resident = kJobs;
  cfg.fanout = false;
  std::vector<JobResult> results = run_jobs(specs, cfg);  // warmup

  std::vector<double> t_naive, t_cosched;
  for (int pass = 0; pass < kPasses; ++pass) {
    Timer tn;
    run_naive(specs);
    t_naive.push_back(tn.seconds());
    Timer tc;
    results = run_jobs(specs, cfg);
    t_cosched.push_back(tc.seconds());
  }

  // Bitwise isolation check: every co-scheduled job's final state must equal
  // its solo run exactly.
  int mismatches = 0;
  for (int i = 0; i < kJobs; ++i) {
    const JobResult& r = results[std::size_t(i)];
    if (r.state != JobState::Completed ||
        r.state_xv != solo[std::size_t(i)]) {
      std::printf("# BITWISE MISMATCH job %d '%s' (%s)\n", r.id,
                  r.name.c_str(), r.error.c_str());
      ++mismatches;
    }
  }

  const Spread naive = spread(t_naive);
  const Spread cosched = spread(t_cosched);
  const double ratio = naive.median / cosched.median;

  std::printf("# bench_server_throughput: %d LJ jobs (32 atoms, %lld steps "
              "each), pool of %d threads, %d interleaved passes, measured "
              "wall-clock\n",
              kJobs, static_cast<long long>(kSteps), pool, kPasses);
  std::printf("%-12s %10s %10s %10s %12s\n", "mode", "q1 s", "median s",
              "q3 s", "jobs/sec");
  for (const auto& [mode, s] : {std::pair{"naive", naive},
                                std::pair{"coscheduled", cosched}})
    std::printf("%-12s %10.4f %10.4f %10.4f %12.1f\n", mode, s.q1, s.median,
                s.q3, kJobs / s.median);
  std::printf("# coscheduled/naive jobs/sec, medians: %.2fx\n", ratio);
  std::printf("# bitwise vs solo: %s\n",
              mismatches == 0 ? "identical" : "MISMATCH");

  if (const char* v = std::getenv("MLK_BENCH_METRICS");
      v && *v && std::string(v) != "0") {
    const std::string dir = std::string(v) == "1" ? "." : v;
    const std::string path = dir + "/BENCH_server.json";
    const auto quartiles = [](const Spread& s) {
      return "{\"q1\": " + std::to_string(s.q1) +
             ", \"median\": " + std::to_string(s.median) +
             ", \"q3\": " + std::to_string(s.q3) + "}";
    };
    std::ofstream f(path, std::ios::trunc);
    f << "{\n"
      << "  \"bench\": \"bench_server_throughput\",\n"
      << "  \"jobs\": " << kJobs << ",\n"
      << "  \"steps_per_job\": " << kSteps << ",\n"
      << "  \"atoms_per_job\": 32,\n"
      << "  \"pool_threads\": " << pool << ",\n"
      << "  \"passes\": " << kPasses << ",\n"
      << "  \"naive_seconds\": " << quartiles(naive) << ",\n"
      << "  \"coscheduled_seconds\": " << quartiles(cosched) << ",\n"
      << "  \"naive_jobs_per_sec\": " << kJobs / naive.median << ",\n"
      << "  \"coscheduled_jobs_per_sec\": " << kJobs / cosched.median << ",\n"
      << "  \"coscheduled_vs_naive\": " << ratio << ",\n"
      << "  \"bitwise_identical_to_solo\": "
      << (mismatches == 0 ? "true" : "false") << "\n"
      << "}\n";
    std::printf("# summary written to %s\n", path.c_str());
  }

  return mismatches == 0 ? 0 : 1;
}
