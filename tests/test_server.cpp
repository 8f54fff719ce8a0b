// Batch-server tests (docs/SERVER.md): queue semantics, the per-job
// isolation guarantee (bitwise-identical trajectories run alone vs
// co-scheduled vs restarted from a job-set checkpoint mid-batch),
// scheduling fairness, failure containment, the jobset manifest round trip,
// and the multi-Simulation static-state audit.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>

#include "minilammps.hpp"
#include "server/job_queue.hpp"
#include "server/jobset_io.hpp"
#include "server/scheduler.hpp"
#include "test_helpers.hpp"

namespace mlk {
namespace {

namespace fs = std::filesystem;
using namespace mlk::server;

/// Fresh scratch directory per test; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() / ("mlk_server_" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string file(const std::string& n) const { return (path / n).string(); }
  fs::path path;
};

/// The server workload: LJ melt on a jittered fcc lattice, device (kk)
/// pair style so every job computes its forces on the shared thread-pool
/// Device, `neigh_modify every 10 check no` so the rebuild schedule is
/// deterministic and checkpoint steps (multiples of 10) coincide with
/// natural rebuilds.
std::vector<std::string> melt_lines(int cells, double temp,
                                    double cutoff = 2.5,
                                    unsigned vseed = 87287) {
  const std::string c = std::to_string(cells);
  return {
      "units lj",
      "lattice fcc 0.8442",
      "create_atoms " + c + " " + c + " " + c + " jitter 0.05 78123",
      "mass 1 1.0",
      "velocity all create " + std::to_string(temp) + " " +
          std::to_string(vseed),
      "suffix kk",
      "pair_style lj/cut " + std::to_string(cutoff),
      "pair_coeff * * 1.0 1.0",
      "neighbor 0.3 bin",
      "neigh_modify every 10 check no",
      "fix 1 all nve",
      "thermo 10",
  };
}

JobSpec melt_job(const std::string& name, int cells, double temp,
                 bigint steps, double cutoff = 2.5, unsigned vseed = 87287) {
  JobSpec spec;
  spec.name = name;
  spec.setup = melt_lines(cells, temp, cutoff, vseed);
  spec.steps = steps;
  return spec;
}

struct SoloRun {
  std::vector<ThermoRow> rows;
  std::vector<double> state_xv;
};

/// Reference trajectory: same script driven by the plain single-Simulation
/// Verlet loop, optionally with the same periodic-checkpoint schedule the
/// server applies (checkpoint steps force rebuilds, so the schedule is part
/// of the trajectory).
SoloRun solo_run(const std::vector<std::string>& setup, bigint steps,
                 bigint restart_every = 0,
                 const std::string& restart_base = "") {
  init_all();
  Simulation sim;
  Input in(sim);
  sim.thermo.print = false;
  for (const std::string& line : setup) in.line(line);
  sim.restart_every = restart_every;
  sim.restart_base = restart_base;
  sim.run(steps);
  SoloRun out;
  out.rows = sim.thermo.rows();
  out.state_xv = capture_state(sim);
  return out;
}

/// Exact (bitwise-value) comparison of recorded thermo rows from
/// `from_step` on: the co-scheduled/resumed run must reproduce every row
/// the reference recorded in that range, with identical values.
void expect_rows_identical(const std::vector<ThermoRow>& want_rows,
                           const std::vector<ThermoRow>& got_rows,
                           bigint from_step = 0) {
  std::map<bigint, ThermoRow> want;
  for (const ThermoRow& r : want_rows)
    if (r.step >= from_step) want[r.step] = r;
  std::size_t matched = 0;
  for (const ThermoRow& r : got_rows) {
    if (r.step < from_step) continue;
    const auto it = want.find(r.step);
    ASSERT_NE(it, want.end()) << "unexpected thermo step " << r.step;
    EXPECT_EQ(r.temp, it->second.temp) << "step " << r.step;
    EXPECT_EQ(r.pe, it->second.pe) << "step " << r.step;
    EXPECT_EQ(r.ke, it->second.ke) << "step " << r.step;
    EXPECT_EQ(r.etotal, it->second.etotal) << "step " << r.step;
    EXPECT_EQ(r.press, it->second.press) << "step " << r.step;
    ++matched;
  }
  EXPECT_EQ(matched, want.size()) << "thermo steps missing";
}

void expect_state_identical(const std::vector<double>& a,
                            const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "packed state index " << i;
}

// ---------------------------------------------------------------- job queue

TEST(ServerQueue, FifoIdsCloseAndSnapshot) {
  init_all();
  JobQueue q;
  EXPECT_EQ(q.submit(melt_job("a", 3, 1.0, 5)), 0);
  EXPECT_EQ(q.submit(melt_job("b", 3, 1.2, 5)), 1);
  EXPECT_EQ(q.submit(melt_job("c", 3, 1.4, 5)), 2);
  EXPECT_EQ(q.pending(), 3u);

  const auto snap = q.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, 0);
  EXPECT_EQ(snap[2].second.name, "c");

  auto first = q.pop(/*wait=*/false);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 0);
  EXPECT_EQ(first->spec.name, "a");
  EXPECT_EQ(q.pending(), 2u);

  EXPECT_FALSE(q.closed());
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_THROW(q.submit(melt_job("d", 3, 1.0, 5)), std::exception);

  // Closed queue still drains what was submitted before close().
  EXPECT_EQ(q.pop(/*wait=*/true)->id, 1);
  EXPECT_EQ(q.pop(/*wait=*/false)->id, 2);
  EXPECT_EQ(q.pop(/*wait=*/true), nullptr);
}

TEST(ServerQueue, FromScriptSplitsRunLines) {
  const JobSpec spec = JobSpec::from_script(
      "s", "units lj\nrun 50\npair_style lj/cut 2.5\n\nrun 25\n");
  EXPECT_EQ(spec.steps, 75);
  ASSERT_EQ(spec.setup.size(), 2u);
  EXPECT_EQ(spec.setup[0], "units lj");
  EXPECT_EQ(spec.setup[1], "pair_style lj/cut 2.5");
}

// -------------------------------------------------------------------- smoke

TEST(ServerSmoke, FourJobsCompleteWithConservedEnergy) {
  init_all();
  std::vector<JobSpec> specs = {
      melt_job("j0", 3, 1.0, 30), melt_job("j1", 3, 1.44, 30),
      melt_job("j2", 4, 0.8, 30), melt_job("j3", 3, 2.0, 30, 3.0)};
  SchedulerConfig cfg;
  cfg.max_resident = 4;
  const auto results = run_jobs(specs, cfg);

  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.state, JobState::Completed) << r.name << ": " << r.error;
    EXPECT_EQ(r.steps_done, 30);
    ASSERT_GE(r.thermo.size(), 2u) << r.name;
    EXPECT_EQ(r.thermo.front().step, 0);
    EXPECT_EQ(r.thermo.back().step, 30);
    // NVE melt over 30 steps: total energy is conserved to integrator
    // accuracy (loose bound — correctness is the bitwise tests' job).
    const double e0 = r.thermo.front().etotal;
    EXPECT_NEAR(r.thermo.back().etotal, e0, 1e-2 * std::max(1.0, std::abs(e0)))
        << r.name;
  }
}

// ---------------------------------------------------- isolation (tentpole)

// Each job's trajectory must be bitwise identical whether it runs alone or
// co-scheduled with different neighbors — with fan-out on, so the pooled
// instances are on trial.
void expect_cohort_matches_solo() {
  init_all();
  // Different sizes, temperatures and cutoffs: neighbors differ in shape,
  // and each job keeps its own coefficients.
  const std::vector<JobSpec> specs = {
      melt_job("small-hot", 3, 1.44, 40),
      melt_job("small-cold", 3, 0.7, 40, 2.5, 12345),
      melt_job("large", 4, 1.0, 40),
      melt_job("wide-cutoff", 3, 1.2, 40, 3.0)};

  std::vector<SoloRun> solo;
  for (const JobSpec& s : specs) solo.push_back(solo_run(s.setup, s.steps));

  SchedulerConfig cfg;
  cfg.max_resident = 4;
  const auto results = run_jobs(specs, cfg);

  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobResult& r = results[i];
    ASSERT_EQ(r.state, JobState::Completed) << r.name << ": " << r.error;
    expect_rows_identical(solo[i].rows, r.thermo);
    expect_state_identical(solo[i].state_xv, r.state_xv);
  }
}

TEST(ServerIsolation, BitwiseIdenticalSoloVsCoScheduled) {
  expect_cohort_matches_solo();
}

// Same guarantee with fan-out off (sequential phases on the scheduler
// thread) — scheduling policy must not be load-bearing for correctness.
TEST(ServerIsolation, BitwiseIdenticalWithoutFanout) {
  init_all();
  const std::vector<JobSpec> specs = {melt_job("a", 3, 1.44, 25),
                                      melt_job("b", 3, 0.9, 25)};
  std::vector<SoloRun> solo;
  for (const JobSpec& s : specs) solo.push_back(solo_run(s.setup, s.steps));

  SchedulerConfig cfg;
  cfg.max_resident = 2;
  cfg.fanout = false;
  const auto results = run_jobs(specs, cfg);
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(results[i].state, JobState::Completed) << results[i].error;
    expect_rows_identical(solo[i].rows, results[i].thermo);
    expect_state_identical(solo[i].state_xv, results[i].state_xv);
  }
}

// Restart-mid-batch: drain the scheduler partway (max_rounds), restore the
// job set from the manifest, finish it, and require final state bitwise
// identical to solo runs under the same checkpoint schedule.
TEST(ServerIsolation, BitwiseIdenticalAfterRestartMidBatch) {
  init_all();
  ScratchDir dir("restart_mid_batch");
  const std::string base = dir.file("set");
  const bigint kSteps = 60, kEvery = 20, kDrainRounds = 45;

  const std::vector<JobSpec> specs = {melt_job("r0", 3, 1.44, kSteps),
                                      melt_job("r1", 3, 0.8, kSteps),
                                      melt_job("r2", 3, 1.1, kSteps, 3.0)};

  // Solo references advance with the identical checkpoint schedule —
  // checkpoint steps force neighbor rebuilds, so every 20 steps is part of
  // the trajectory definition (here it coincides with the pinned every-10
  // rebuild cadence anyway).
  std::vector<SoloRun> solo;
  for (std::size_t i = 0; i < specs.size(); ++i)
    solo.push_back(solo_run(specs[i].setup, kSteps, kEvery,
                            dir.file("solo" + std::to_string(i))));

  // Phase 1: run the batch, interrupted after kDrainRounds rounds.
  {
    SchedulerConfig cfg;
    cfg.max_resident = 3;
    cfg.checkpoint_every = kEvery;
    cfg.checkpoint_base = base;
    cfg.max_rounds = kDrainRounds;
    const auto partial = run_jobs(specs, cfg);
    ASSERT_EQ(partial.size(), 3u);
    for (const JobResult& r : partial) {
      EXPECT_EQ(r.state, JobState::Running) << r.name << ": " << r.error;
      EXPECT_EQ(r.steps_done, kDrainRounds);
    }
  }

  // Phase 2: restore from the manifest and run to completion.
  const std::vector<JobSpec> restored = restore_jobset(base);
  ASSERT_EQ(restored.size(), 3u);
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].name, specs[i].name);
    EXPECT_FALSE(restored[i].resume_from.empty());
    EXPECT_FALSE(restored[i].restore.empty());
  }
  SchedulerConfig cfg;
  cfg.max_resident = 3;
  cfg.checkpoint_every = kEvery;
  cfg.checkpoint_base = base;
  const auto results = run_jobs(restored, cfg);

  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const JobResult& r = results[i];
    ASSERT_EQ(r.state, JobState::Completed) << r.name << ": " << r.error;
    EXPECT_EQ(r.steps_done, kSteps);
    // Rows recorded after the resume point (the newest checkpoint is at
    // step 40) must match the straight-through reference bitwise.
    expect_rows_identical(solo[i].rows, r.thermo, /*from_step=*/50);
    expect_state_identical(solo[i].state_xv, r.state_xv);
  }

  // The manifest now records the whole set as completed.
  for (const ManifestEntry& e : read_manifest(base)) {
    EXPECT_EQ(e.state, JobState::Completed) << e.name;
    EXPECT_EQ(e.steps_done, kSteps) << e.name;
  }
  EXPECT_TRUE(restore_jobset(base).empty());
}

// ----------------------------------------------------------------- fairness

// Lockstep rounds give every resident job one step per round, so a long job
// cannot starve short ones: with 2 slots, all shorts must finish (and free
// their slots for each other) while the long job is still running.
TEST(ServerFairness, LongJobCannotStarveShortJobs) {
  init_all();
  std::vector<JobSpec> specs = {melt_job("long", 3, 1.44, 80)};
  for (int i = 0; i < 3; ++i)
    specs.push_back(melt_job("short" + std::to_string(i), 3, 1.0, 10));

  SchedulerConfig cfg;
  cfg.max_resident = 2;
  const auto results = run_jobs(specs, cfg);

  ASSERT_EQ(results.size(), 4u);
  const JobResult& long_job = results[0];
  EXPECT_EQ(long_job.name, "long");
  EXPECT_EQ(long_job.state, JobState::Completed) << long_job.error;
  EXPECT_EQ(long_job.steps_done, 80);
  EXPECT_EQ(long_job.finish_order, 3);  // strictly last
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].state, JobState::Completed) << results[i].error;
    EXPECT_EQ(results[i].steps_done, 10);
    EXPECT_LT(results[i].finish_order, long_job.finish_order);
  }
}

// -------------------------------------------------------- failure isolation

TEST(ServerFailure, BadScriptFailsOnlyThatJob) {
  init_all();
  JobSpec bad;
  bad.name = "bad";
  bad.setup = {"units lj", "pair_style no/such/style 2.5"};
  bad.steps = 10;

  const std::vector<JobSpec> specs = {melt_job("good0", 3, 1.0, 15), bad,
                                      melt_job("good1", 3, 1.2, 15)};
  SchedulerConfig cfg;
  cfg.max_resident = 3;
  const auto results = run_jobs(specs, cfg);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].state, JobState::Completed) << results[0].error;
  EXPECT_EQ(results[1].state, JobState::Failed);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_EQ(results[2].state, JobState::Completed) << results[2].error;
}

// A fault armed mid-run (fault_inject, the PR-1 harness) throws inside
// step_begin on the job's instance; the fence maps it to that job alone and
// the cohort keeps going.
TEST(ServerFailure, MidRunFaultIsContained) {
  init_all();
  JobSpec faulty = melt_job("faulty", 3, 1.0, 30);
  faulty.setup.push_back("fault_inject 7");

  const std::vector<JobSpec> specs = {faulty, melt_job("survivor", 3, 1.2, 30)};
  const SoloRun solo = solo_run(specs[1].setup, specs[1].steps);

  SchedulerConfig cfg;
  cfg.max_resident = 2;
  const auto results = run_jobs(specs, cfg);

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].state, JobState::Failed);
  EXPECT_FALSE(results[0].error.empty());
  ASSERT_EQ(results[1].state, JobState::Completed) << results[1].error;
  EXPECT_EQ(results[1].steps_done, 30);
  // The survivor's trajectory is unperturbed by its neighbor's death.
  expect_rows_identical(solo.rows, results[1].thermo);
  expect_state_identical(solo.state_xv, results[1].state_xv);
}

// ----------------------------------------------------------- jobset manifest

TEST(ServerManifest, RoundTripPreservesEntries) {
  ScratchDir dir("manifest");
  const std::string base = dir.file("set");
  std::vector<ManifestEntry> entries(2);
  entries[0] = {0, "alpha", JobState::Completed, 50, 50,
                {"units lj", "pair_style lj/cut 2.5"}, base + ".job0"};
  entries[1] = {1, "beta \"quoted\"", JobState::Running, 100, 40,
                {"units lj"}, base + ".job1"};
  write_manifest(base, entries);

  const auto back = read_manifest(base);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, 0);
  EXPECT_EQ(back[0].name, "alpha");
  EXPECT_EQ(back[0].state, JobState::Completed);
  EXPECT_EQ(back[0].steps_total, 50);
  EXPECT_EQ(back[0].setup.size(), 2u);
  EXPECT_EQ(back[1].name, "beta \"quoted\"");
  EXPECT_EQ(back[1].state, JobState::Running);
  EXPECT_EQ(back[1].steps_done, 40);
  EXPECT_EQ(back[1].restart_base, base + ".job1");
}

TEST(ServerManifest, RestoreLinesDropsAtomCreatingCommands) {
  const auto kept = restore_lines(melt_lines(3, 1.44));
  for (const std::string& line : kept) {
    EXPECT_EQ(line.find("create_atoms"), std::string::npos) << line;
    EXPECT_EQ(line.find("velocity"), std::string::npos) << line;
    EXPECT_EQ(line.find("lattice"), std::string::npos) << line;
    EXPECT_EQ(line.find("mass"), std::string::npos) << line;
  }
  // Styles and neighbor policy must survive for non-serializing styles.
  auto has = [&](const std::string& word) {
    for (const std::string& line : kept)
      if (line.find(word) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(has("pair_style"));
  EXPECT_TRUE(has("pair_coeff"));
  EXPECT_TRUE(has("neigh_modify"));
  EXPECT_TRUE(has("fix"));
  EXPECT_TRUE(has("suffix"));
}

// ----------------------------------------------- multi-instance static audit

// Two Simulations built and run concurrently from plain threads must both
// produce the solo-run trajectory — regression for the static-state audit
// (style-registry init, observability env caches, QEq scratch).
TEST(ServerStatics, ConcurrentSimulationsMatchSolo) {
  init_all();
  const std::vector<std::string> script_a = melt_lines(3, 1.44);
  const std::vector<std::string> script_b = melt_lines(3, 0.8, 2.5, 424242);
  const SoloRun ref_a = solo_run(script_a, 15);
  const SoloRun ref_b = solo_run(script_b, 15);

  SoloRun got_a, got_b;
  std::thread ta([&] { got_a = solo_run(script_a, 15); });
  std::thread tb([&] { got_b = solo_run(script_b, 15); });
  ta.join();
  tb.join();

  expect_rows_identical(ref_a.rows, got_a.rows);
  expect_state_identical(ref_a.state_xv, got_a.state_xv);
  expect_rows_identical(ref_b.rows, got_b.rows);
  expect_state_identical(ref_b.state_xv, got_b.state_xv);
}

}  // namespace
}  // namespace mlk
