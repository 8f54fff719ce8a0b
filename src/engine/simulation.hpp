// Simulation — the top-level container tying together atoms, domain,
// neighbor lists, communication, the pair style, fixes, and thermo output.
// Equivalent to the LAMMPS class of the same role; one instance per rank.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/simmpi.hpp"
#include "engine/atom.hpp"
#include "engine/atom_sort.hpp"
#include "engine/balance.hpp"
#include "engine/comm_pair.hpp"
#include "engine/compute.hpp"
#include "engine/domain.hpp"
#include "engine/fix.hpp"
#include "engine/neighbor.hpp"
#include "engine/pair.hpp"
#include "engine/thermo.hpp"
#include "engine/units.hpp"
#include "io/fault.hpp"
#include "kokkos/instance.hpp"
#include "util/timer.hpp"

namespace mlk {

namespace tools {
class ChromeTrace;
class KernelTimer;
class MemorySpaceTracker;
namespace telemetry {
struct SimTelemetry;
struct TelemetrySummary;
}  // namespace telemetry
}  // namespace tools

class Simulation {
 public:
  Simulation();
  /// Flushes and deregisters any profiling tools owned by this Simulation
  /// (registered via the `profile` / `trace` input commands).
  ~Simulation();

  Units units;
  double dt = 0.005;
  bigint ntimestep = 0;

  Atom atom;
  Domain domain;
  Neighbor neighbor;
  CommBrick comm;
  /// Spatial reorder of owned atoms every N rebuilds (`sort every <N>`;
  /// docs/DECOMPOSITION.md).
  AtomSorter sorter;
  /// RCB rebalancing of the sub-domain cuts (`balance rcb <thresh>`).
  Balancer balancer;
  std::unique_ptr<Pair> pair;
  std::vector<std::unique_ptr<Fix>> fixes;
  Thermo thermo;
  TimerSet timers;

  /// Non-owning; null in serial runs.
  simmpi::Comm* mpi = nullptr;

  /// What an unsuffixed style resolves to when the global suffix is active
  /// ("" = plain host styles; "kk" = Kokkos device; "kk/host").
  std::string global_suffix;

  /// Input-script newton override: -1 = use the pair style's preference.
  int newton_override = -1;

  // --- comm/compute overlap (docs/EXECUTION_MODEL.md) ---
  /// Enabled by the `overlap on` input command. When the pair style also
  /// supports the interior/boundary split for the current neighbor list,
  /// non-rebuild steps launch the interior force pass on one DeviceInstance
  /// while the halo exchange runs on another.
  bool overlap_enabled = false;

  /// True when the next force phase will actually take the overlapped path.
  bool overlap_active() const;

  /// Lazily created execution-space instances: one for asynchronous force
  /// kernels, one for the halo exchange. Per-Simulation (per-rank), so
  /// ChromeTrace shows a pair of instance tracks per rank.
  kk::DeviceInstance& instance_compute();
  kk::DeviceInstance& instance_comm();

  // --- checkpoint/restart (src/io) ---
  /// Periodic checkpointing: every `restart_every` steps the Verlet loop
  /// writes `restart_base.<step>[.<rank>]` (0 = off). Checkpoint steps force
  /// a neighbor rebuild so a resumed run reproduces the writer's neighbor
  /// list — the basis of the bitwise-identical-resume guarantee.
  bigint restart_every = 0;
  std::string restart_base;

  /// Fault injection hook, armed by `fault_inject <step>` or MLK_FAULT_STEP;
  /// fires mid-step (after the first integration half), where a crash loses
  /// the most state.
  io::FaultInjector fault;

  // --- observability (src/tools) ---
  /// Tools registered by the `profile on` / `trace <file>` input commands.
  /// Held here so `profile dump` can reach them and so the destructor can
  /// flush + deregister; the kk::profiling registry owns dispatch.
  std::shared_ptr<tools::KernelTimer> profile_timer;
  std::shared_ptr<tools::MemorySpaceTracker> profile_memory;
  std::shared_ptr<tools::ChromeTrace> tracer;

  /// Live telemetry block (docs/OBSERVABILITY.md): Verlet::begin attaches
  /// it when the hub is streaming; the destructor — or, for server jobs,
  /// the scheduler at job retirement — detaches with a final drain. The
  /// label/job id tag every sample this Simulation publishes.
  std::shared_ptr<tools::telemetry::SimTelemetry> telemetry;
  std::string telemetry_label = "main";
  int telemetry_job_id = -1;

  /// Detach from the telemetry hub, final-draining this Simulation's rings
  /// into the stream; fills `summary` when non-null (the batch server
  /// copies it into JobResult). No-op when never attached.
  void detach_telemetry(tools::telemetry::TelemetrySummary* summary = nullptr);

  /// Flush and deregister the profiling tools this Simulation registered
  /// (profile/trace input commands). The destructor calls this, but the
  /// batch server calls it explicitly when a job retires so a long server
  /// run flushes per-job output at job end, not at process exit.
  void flush_tools();

  /// Write a checkpoint of the current state to `base[.<rank>]`. Marks the
  /// next run for a full setup so the continuing process and a process
  /// resumed from this file take bitwise-identical trajectories.
  void write_restart(const std::string& base);

  void set_units(const std::string& which);

  /// Prepare for a run: decide neighbor settings from the pair style,
  /// build ghosts and the first neighbor list, evaluate initial forces.
  void setup();

  /// Everything run() does before entering the Verlet loop: setup() when
  /// needed plus initialization of fixes added since the last run. The
  /// batch server (src/server) calls this once per job, then drives a
  /// Verlet instance step by step.
  void prepare_run();

  /// Velocity-Verlet time integration for nsteps (requires setup()).
  void run(bigint nsteps);

  /// Evaluate forces for the current configuration (zeroes, pair->compute,
  /// then finish_external_forces()).
  void compute_forces(bool eflag);

  // --- global diagnostics (allreduced across ranks when mpi is set) ---
  bigint global_natoms();
  double kinetic_energy();
  double temperature();
  double potential_energy();
  double pressure();

  double allreduce_sum(double v);
  bigint allreduce_sum(bigint v);

  bool setup_done = false;

 private:
  friend class Verlet;
  void rebuild_neighbors();

  /// Force-phase epilogue: reverse force communication when the list needs
  /// it, then the fixes' post_force hooks. Both force paths end with it.
  void finish_external_forces();

  /// Overlapped force phase for non-rebuild steps: interior pair kernel on
  /// instance_compute() concurrent with forward_positions on
  /// instance_comm(); per-instance fences (never a global kk::fence), then
  /// the boundary pass. Bitwise-identical forces to the serialized path.
  void compute_forces_overlap(bool eflag);

  std::unique_ptr<kk::DeviceInstance> instance_compute_;
  std::unique_ptr<kk::DeviceInstance> instance_comm_;
};

/// Velocity-Verlet driver (LAMMPS's Verlet integrate style).
///
/// Two ways to drive it:
///   * run(nsteps) — the classic single-simulation loop.
///   * step by step — begin(nsteps) once, then step() until done(), then
///     finish(). step() is { auto p = step_begin(); step_force(p);
///     step_end(p); } and run() is composed of exactly these calls, so every
///     driving produces bitwise-identical trajectories. The batch server
///     (src/server) runs step() as one task per job per round; the phase
///     split lets a caller time each phase on its own.
class Verlet {
 public:
  explicit Verlet(Simulation& sim) : sim_(sim) {}

  /// One step's decisions, made once in step_begin and consumed by the
  /// later phases of the same step.
  struct Phase {
    bool rebuild = false;     // neighbor list was rebuilt this step
    bool overlap = false;     // force phase takes the overlapped path
    bool eflag = false;       // energy/virial tallies requested
    bool checkpoint = false;  // periodic restart write at end of step
  };

  void begin(bigint nsteps);
  bool done() const { return step_ >= nsteps_; }
  /// Advance the step counter, decide rebuild/overlap/eflag/checkpoint,
  /// run the first integration half, and bring ghosts up to date (full
  /// rebuild or halo forward; the overlapped path defers the forward).
  Phase step_begin();
  /// Force evaluation for this step (pair + post_force fixes).
  void step_force(const Phase& p);
  /// Second integration half, end_of_step fixes, checkpoint/thermo output.
  void step_end(const Phase& p);
  /// One whole step: the three phases back to back. Returns its decisions.
  Phase step();
  void finish();

  void run(bigint nsteps);

 private:
  /// Push this step's StepSample (timing/launch deltas) into the sim's
  /// telemetry ring and take a coordinate capture on the configured
  /// cadence. No-op unless the hub is streaming.
  void publish_telemetry(const Phase& p);

  Simulation& sim_;
  bigint nsteps_ = 0;
  bigint step_ = 0;
  TimerSet timers_before_;  // sim.timers at loop start
  TimerSet step_timers_;    // sim.timers at step start
  bigint nbuilds_before_ = 0;
  bigint ndanger_before_ = 0;
  bigint nretries_before_ = 0;
  Timer loop_timer_;
};

}  // namespace mlk
