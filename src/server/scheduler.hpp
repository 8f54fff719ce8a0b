// Scheduler — multiplexes N co-resident Simulations over the shared
// thread-pool Device (docs/SERVER.md).
//
// Policy: lockstep round-robin. Each scheduling round advances every
// resident job by exactly one timestep: one Job::step task per job
// (step_begin, step_force and step_end back to back), enqueued on the job's
// pooled DeviceInstance under fan-out or run inline otherwise, then one
// fence per instance. Jobs co-schedule; their kernels never fuse, so each
// job's force time lands in its own Pair section.
//
// Fairness is structural: a round gives every resident job one step, so a
// long job cannot starve short ones, and a completed job's slot is refilled
// from the queue at the next round boundary. A task exception surfaces at
// the owning job's fence and fails only that job; the cohort keeps going.
#pragma once

#include <string>
#include <vector>

#include "kokkos/instance.hpp"
#include "server/job_queue.hpp"
#include "server/jobset_io.hpp"

namespace mlk::server {

struct SchedulerConfig {
  /// Co-resident Simulations: the jobs each round advances.
  int max_resident = 4;
  /// Inert: jobs never fuse. Kept because perfbench/harness.cpp sets it.
  bool batch = true;
  /// Run each job's step on its pooled DeviceInstance. Off = every step
  /// runs sequentially on the scheduler thread (still lockstep).
  bool fanout = true;
  /// Per-job stdout (thermo rows). Results carry the rows either way.
  bool thermo_print = false;
  /// Job-set checkpointing: every N job-local steps each resident job
  /// writes <checkpoint_base>.job<id>.<step> and the scheduler rewrites
  /// <checkpoint_base>.manifest.json (0 = off).
  bigint checkpoint_every = 0;
  std::string checkpoint_base;
  /// Stop after this many scheduling rounds even if jobs remain (0 =
  /// unlimited): graceful drain for server shutdown, and the test harness
  /// for restart-mid-batch scenarios. Unfinished state lands in the
  /// manifest when checkpointing is on.
  bigint max_rounds = 0;
};

class Scheduler {
 public:
  Scheduler(JobQueue& queue, SchedulerConfig cfg = {});

  /// Drive until the queue is closed and drained and every admitted job
  /// finished (or max_rounds hit). Call from one thread.
  void run();

  /// Terminal results in admission order (after run() returns).
  const std::vector<JobResult>& results() const { return results_; }

  /// Counters for benches/tests.
  struct Stats {
    bigint rounds = 0;         // scheduling rounds driven
    bigint steps = 0;          // job-steps advanced in total
    // Always 0: jobs never fuse. Kept because perfbench/harness.cpp reads
    // them.
    bigint fused_launches = 0;
    bigint fused_jobs = 0;
    bigint solo_forces = 0;    // job-steps dispatched (each runs its own forces)
  };
  const Stats& stats() const { return stats_; }

 private:
  void admit();
  void step_cohort();
  void update_manifest_entry(const Job& job);
  void write_manifest_snapshot();

  /// Retire one finished/failed job: release its instance, flush its
  /// per-job tools and telemetry (explicitly, at job end — not via atexit),
  /// and append its JobResult (telemetry summary included).
  /// `assign_finish_order` is false on the graceful max_rounds drain, where
  /// unfinished jobs carry no completion sequence.
  void retire_job(Job& job, bool assign_finish_order);

  /// Publish a scheduler event into the telemetry ring (no-op when the hub
  /// is not streaming). The scheduler thread is the single producer.
  void publish_sched_event(tools::telemetry::SchedKind kind, int job_id,
                           float round_ms = 0.0f);

  JobQueue& queue_;
  SchedulerConfig cfg_;
  std::vector<std::unique_ptr<Job>> resident_;
  std::vector<JobResult> results_;
  std::vector<ManifestEntry> manifest_;  // every job admitted so far
  kk::InstancePool pool_;
  Stats stats_;
  int finish_counter_ = 0;
  /// Ring block for scheduler events while the telemetry hub streams.
  std::shared_ptr<tools::telemetry::SchedTelemetry> telemetry_;
};

/// Submit specs, run a scheduler to completion, return results — the
/// one-call entry point for tests, benches and simple embedders.
std::vector<JobResult> run_jobs(std::vector<JobSpec> specs,
                                SchedulerConfig cfg = {});

}  // namespace mlk::server
