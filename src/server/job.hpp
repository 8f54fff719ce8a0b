// Job — one unit of MD work submitted to the batch server (docs/SERVER.md).
//
// A job is an independent simulation: its own Simulation, Input interpreter
// and phase-driven Verlet, co-resident with other jobs in one process. The
// multi-instance audit in this PR removed the remaining cross-Simulation
// static state (style-registry construction, observability init, QEq
// scratch), so any number of Jobs coexist safely.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/input.hpp"
#include "engine/simulation.hpp"
#include "engine/thermo.hpp"
#include "tools/telemetry/telemetry.hpp"

namespace kk {
class DeviceInstance;
}

namespace mlk::server {

/// What a client submits: a name, the setup script (style declarations,
/// lattice spec, fixes — everything except `run`), and how many timesteps
/// to advance. Scripts are LAMMPS-style input lines (engine/input.hpp).
struct JobSpec {
  std::string name;
  std::vector<std::string> setup;  // executed once at admission
  bigint steps = 0;                // total timesteps to advance

  /// Job-set restore (jobset_io.hpp): when non-empty, the job resumes from
  /// the newest valid checkpoint of this base instead of running `setup`.
  /// `restore` then holds the style-only preamble executed before the
  /// recover — never atom-creating commands, since read_restart requires an
  /// empty atom store and the checkpoint already carries atoms, velocities,
  /// fix state and (for styles that serialize coefficients) the pair style.
  std::string resume_from;
  std::vector<std::string> restore;

  /// Split a full script into a JobSpec: `run N` lines are summed into
  /// `steps`; every other non-blank, non-comment line joins `setup`.
  static JobSpec from_script(std::string name, const std::string& text);
};

enum class JobState { Queued, Running, Completed, Failed };
const char* to_string(JobState s);

/// Terminal record the server hands back for one job.
struct JobResult {
  int id = -1;
  std::string name;
  JobState state = JobState::Queued;
  std::string error;        // exception text when state == Failed
  bigint steps_done = 0;
  int finish_order = -1;    // 0-based completion sequence (fairness tests)
  std::vector<ThermoRow> thermo;  // the job's recorded thermo rows
  std::vector<double> state_xv;   // final state (capture_state) for bitwise checks
  /// Telemetry accounting for this job, filled when the scheduler flushes
  /// the job's telemetry at retirement (zeros when the hub never streamed).
  tools::telemetry::TelemetrySummary telemetry;
};

/// Tag-sorted packed {x[3], v[3]} of every owned atom — the fingerprint the
/// isolation tests and the throughput bench compare bitwise against solo
/// runs. Tag order makes it independent of local index permutations.
std::vector<double> capture_state(Simulation& sim);

/// A live job owned by the scheduler while resident.
class Job {
 public:
  Job(int id_in, JobSpec spec_in) : id(id_in), spec(std::move(spec_in)) {}

  /// Build the Simulation and enter the run: execute the setup script (or
  /// the restore preamble + checkpoint recovery when resuming), apply the
  /// server's checkpoint/thermo policy, then prepare_run + Verlet::begin
  /// over the remaining steps. Throws on script or recovery errors.
  void start(bigint checkpoint_every, const std::string& checkpoint_base,
             bool thermo_print);

  /// Advance one timestep (Verlet::step), keeping its decisions in `phase`.
  void step() { phase = verlet->step(); }

  /// Job-local steps advanced so far (== sim->ntimestep; jobs start at 0).
  bigint steps_done() const { return sim ? sim->ntimestep : 0; }

  int id;
  JobSpec spec;
  JobState state = JobState::Queued;
  std::string error;

  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Input> input;
  std::unique_ptr<Verlet> verlet;

  /// Pooled stream handle while resident (null when fan-out is off).
  kk::DeviceInstance* instance = nullptr;
  /// The last step's phase decisions (the scheduler reads `checkpoint`).
  Verlet::Phase phase;
};

}  // namespace mlk::server
