#include "server/scheduler.hpp"

#include <algorithm>

#include "kokkos/profiling.hpp"
#include "util/timer.hpp"

namespace mlk::server {

namespace tel = tools::telemetry;

Scheduler::Scheduler(JobQueue& queue, SchedulerConfig cfg)
    : queue_(queue), cfg_(cfg), pool_("job") {}

void Scheduler::run() {
  // Scheduler events stream into one ring whose producer is this thread.
  if (tel::active() && !telemetry_)
    telemetry_ = tel::Hub::instance().attach_sched("server");

  for (;;) {
    admit();
    if (resident_.empty()) break;  // queue closed and drained
    if (cfg_.max_rounds > 0 && stats_.rounds >= cfg_.max_rounds) break;
    step_cohort();
    ++stats_.rounds;
  }

  // Graceful drain (max_rounds): unfinished residents hand back partial
  // results with state Running; the manifest records how far each got so
  // restore_jobset can resume them.
  for (auto& jp : resident_) retire_job(*jp, /*assign_finish_order=*/false);
  resident_.clear();

  if (telemetry_) {
    tel::Hub::instance().detach_sched(telemetry_);
    telemetry_.reset();
  }

  if (cfg_.checkpoint_every > 0 && !cfg_.checkpoint_base.empty())
    write_manifest_snapshot();

  std::sort(results_.begin(), results_.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
}

void Scheduler::admit() {
  while (int(resident_.size()) < cfg_.max_resident) {
    // Block only when idle — with live jobs the cohort keeps stepping and
    // new submissions are picked up at the next round boundary.
    const bool wait = resident_.empty();
    std::unique_ptr<Job> job = queue_.pop(wait);
    if (!job) break;

    try {
      job->start(cfg_.checkpoint_every, cfg_.checkpoint_base,
                 cfg_.thermo_print);
      if (cfg_.fanout) job->instance = &pool_.acquire();
    } catch (const std::exception& e) {
      JobResult r;
      r.id = job->id;
      r.name = job->spec.name;
      r.state = JobState::Failed;
      r.error = e.what();
      r.finish_order = finish_counter_++;
      results_.push_back(std::move(r));
      ManifestEntry m;
      m.id = job->id;
      m.name = job->spec.name;
      m.state = JobState::Failed;
      m.steps_total = job->spec.steps;
      m.setup = job->spec.setup;
      manifest_.push_back(std::move(m));
      continue;
    }

    ManifestEntry m;
    m.id = job->id;
    m.name = job->spec.name;
    m.state = JobState::Running;
    m.steps_total = job->spec.steps;
    m.steps_done = job->steps_done();
    m.setup = job->spec.setup;
    m.restart_base = job->sim->restart_base;
    manifest_.push_back(std::move(m));
    const int admitted_id = job->id;
    resident_.push_back(std::move(job));
    publish_sched_event(tel::SchedKind::Admit, admitted_id);
  }
}

void Scheduler::publish_sched_event(tel::SchedKind kind, int job_id,
                                    float round_ms) {
  if (!telemetry_ || !tel::active()) return;
  tel::SchedSample ev;
  ev.kind = std::int32_t(kind);
  ev.job_id = job_id;
  ev.round = stats_.rounds;
  ev.queue_depth = std::int32_t(queue_.pending());
  ev.in_flight = std::int32_t(resident_.size());
  ev.round_ms = round_ms;
  telemetry_->events.push(ev);
}

void Scheduler::retire_job(Job& job, bool assign_finish_order) {
  if (job.instance) {
    try {
      pool_.release(*job.instance);
    } catch (const std::exception& e) {
      job.state = JobState::Failed;
      job.error = e.what();
    }
    job.instance = nullptr;
  }

  JobResult r;
  r.id = job.id;
  r.name = job.spec.name;
  r.state = job.state;
  r.error = job.error;
  r.steps_done = job.steps_done();
  if (assign_finish_order) r.finish_order = finish_counter_++;
  if (job.sim) {
    r.thermo = job.sim->thermo.rows();
    if (job.state != JobState::Failed) r.state_xv = capture_state(*job.sim);
    // Flush per-job observability NOW, while the job retires — a server
    // that stays up for days must not defer per-job profile/trace output
    // and telemetry attribution to the global atexit flush. The telemetry
    // final drain fills the result's summary.
    job.sim->flush_tools();
    job.sim->detach_telemetry(&r.telemetry);
  }
  results_.push_back(std::move(r));
  update_manifest_entry(job);
  publish_sched_event(tel::SchedKind::JobFinish, job.id);
}

void Scheduler::step_cohort() {
  // A job resumed at (or past) its final step has nothing to run.
  for (auto& jp : resident_)
    if (jp->state == JobState::Running && jp->verlet->done())
      jp->state = JobState::Completed;

  // One task per resident job runs its whole step: on the job's pooled
  // instance under fan-out, inline otherwise. Either way an exception fails
  // only the job that threw.
  auto fail = [](Job& job, const std::exception& e) {
    job.state = JobState::Failed;
    job.error = e.what();
  };
  Timer round_timer;
  for (auto& jp : resident_) {
    Job& job = *jp;
    if (job.state != JobState::Running) continue;
    ++stats_.solo_forces;
    if (job.instance) {
      job.instance->enqueue("Job::step", [j = &job] { j->step(); });
    } else {
      try {
        job.step();
      } catch (const std::exception& e) {
        fail(job, e);
      }
    }
  }
  // One fence per round; a task exception surfaces at its own instance.
  for (auto& jp : resident_) {
    Job& job = *jp;
    if (job.state != JobState::Running || !job.instance) continue;
    try {
      job.instance->fence();
    } catch (const std::exception& e) {
      fail(job, e);
    }
  }
  const float round_ms = float(round_timer.seconds() * 1e3);

  // --- end of round: retire finished/failed jobs, persist the manifest ---
  bool any_checkpoint = false;
  std::vector<std::unique_ptr<Job>> still_resident;
  still_resident.reserve(resident_.size());
  for (auto& jp : resident_) {
    Job& job = *jp;
    if (job.state == JobState::Running) {
      ++stats_.steps;
      any_checkpoint = any_checkpoint || job.phase.checkpoint;
    }
    if (job.state == JobState::Running && !job.verlet->done()) {
      still_resident.push_back(std::move(jp));
      continue;
    }
    if (job.state != JobState::Failed) {
      job.verlet->finish();
      job.state = JobState::Completed;
    }
    retire_job(job, /*assign_finish_order=*/true);
  }
  resident_ = std::move(still_resident);

  publish_sched_event(tel::SchedKind::Round, -1, round_ms);
  // Counter tracks on any live Chrome trace (no-ops when none registered).
  kk::profiling::count_event("server.queue_depth", double(queue_.pending()));
  kk::profiling::count_event("server.in_flight", double(resident_.size()));

  if (any_checkpoint && cfg_.checkpoint_every > 0 &&
      !cfg_.checkpoint_base.empty())
    write_manifest_snapshot();
}

void Scheduler::update_manifest_entry(const Job& job) {
  for (ManifestEntry& e : manifest_) {
    if (e.id != job.id) continue;
    e.state = job.state;
    e.steps_done = job.steps_done();
    return;
  }
}

void Scheduler::write_manifest_snapshot() {
  // Admitted jobs (manifest_, kept current) + still-queued jobs, so a
  // restore resubmits the full set. steps_done for running jobs is whatever
  // the last *checkpoint* captured on disk — recover_latest resumes from
  // there, not from the in-memory step counter.
  std::vector<ManifestEntry> entries = manifest_;
  for (ManifestEntry& e : entries)
    for (const auto& jp : resident_)
      if (jp->id == e.id) e.steps_done = jp->steps_done();
  for (const auto& [id, spec] : queue_.snapshot()) {
    ManifestEntry e;
    e.id = id;
    e.name = spec.name;
    e.state = JobState::Queued;
    e.steps_total = spec.steps;
    e.setup = spec.setup;
    entries.push_back(std::move(e));
  }
  write_manifest(cfg_.checkpoint_base, entries);
}

std::vector<JobResult> run_jobs(std::vector<JobSpec> specs,
                                SchedulerConfig cfg) {
  JobQueue queue;
  for (JobSpec& spec : specs) queue.submit(std::move(spec));
  queue.close();
  Scheduler scheduler(queue, cfg);
  scheduler.run();
  return scheduler.results();
}

}  // namespace mlk::server
