// Scheduler — multiplexes N co-resident Simulations over the shared
// thread-pool Device and fuses their force kernels (docs/SERVER.md).
//
// Policy: lockstep round-robin. Each scheduling round advances every
// resident job by exactly one timestep in three waves —
//
//   wave A  step_begin on each job's pooled DeviceInstance (integration
//           half, rebuild decision + rebuild/halo comm), then fence;
//   wave B  force phase: jobs whose pair styles report matching batch
//           signatures enlist into one PairBatch and share a single fused
//           launch (groups of >= 2); the rest run their solo force path on
//           their instances, then fence;
//   wave C  step_end on each instance (second half, checkpoint/thermo),
//           then fence.
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
  /// Co-resident Simulations (the N of the paper's batching regime).
  int max_resident = 4;
  /// Cross-job fused force launches (PairBatch). Off = solo forces.
  bool batch = true;
  /// Drive per-job phases on pooled DeviceInstances. Off = every phase runs
  /// sequentially on the scheduler thread (still lockstep, still batched).
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
    bigint fused_launches = 0; // PairBatch launches dispatched
    bigint fused_jobs = 0;     // job-steps that rode a fused launch
    bigint solo_forces = 0;    // job-steps that took the solo force path
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
                           float wave_a_ms = 0.0f, float wave_b_ms = 0.0f,
                           float wave_c_ms = 0.0f);

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
