#include "engine/simulation.hpp"

#include <cmath>

#include "io/restart.hpp"
#include "io/restart_writer.hpp"
#include "kokkos/profiling.hpp"
#include "tools/chrome_trace.hpp"
#include "tools/kernel_timer.hpp"
#include "tools/memory_tracker.hpp"
#include "tools/telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace mlk {

namespace {

/// The one section clock: adds the scope's seconds to its Section and
/// brackets them with the section's trace region, so the breakdown,
/// telemetry and the trace all see the same boundaries.
class SectionScope {
 public:
  SectionScope(TimerSet& timers, Section s) : timers_(timers), s_(s) {
    kk::profiling::push_region(kSectionRegions[std::size_t(s)]);
    t_.start();
  }
  ~SectionScope() {
    timers_.add(s_, t_.seconds());
    kk::profiling::pop_region();
  }
  SectionScope(const SectionScope&) = delete;
  SectionScope& operator=(const SectionScope&) = delete;

 private:
  TimerSet& timers_;
  Section s_;
  Timer t_;
};

}  // namespace

Simulation::Simulation() {
  units = Units::make("lj");
  fault.arm_from_env();
}

Simulation::~Simulation() {
  detach_telemetry();
  // Tools registered by input commands flush on owner destruction so tests
  // and scripted runs get their files without waiting for process exit.
  flush_tools();
}

void Simulation::flush_tools() {
  if (profile_timer) {
    kk::profiling::deregister_tool(profile_timer);
    profile_timer->finalize();
    profile_timer.reset();
  }
  if (profile_memory) {
    kk::profiling::deregister_tool(profile_memory);
    profile_memory->finalize();
    profile_memory.reset();
  }
  if (tracer) {
    kk::profiling::deregister_tool(tracer);
    tracer->finalize();
    tracer.reset();
  }
}

void Simulation::detach_telemetry(tools::telemetry::TelemetrySummary* summary) {
  if (!telemetry) return;
  tools::telemetry::Hub::instance().detach_sim(telemetry, summary);
  telemetry.reset();
}

void Simulation::write_restart(const std::string& base) {
  io::RestartWriter().write(*this, base);
  // A resumed process goes through setup() (ghost + neighbor rebuild from
  // the saved positions); force the same path on the writer's next run so
  // both trajectories stay bitwise-identical.
  setup_done = false;
}

void Simulation::set_units(const std::string& which) {
  units = Units::make(which);
  dt = units.dt_default;
  neighbor.skin = units.skin_default;
}

double Simulation::allreduce_sum(double v) {
  return mpi ? mpi->allreduce_sum(v) : v;
}

bigint Simulation::allreduce_sum(bigint v) {
  return mpi ? mpi->allreduce_sum(v) : v;
}

bigint Simulation::global_natoms() {
  return allreduce_sum(bigint(atom.nlocal));
}

void Simulation::rebuild_neighbors() {
  SectionScope section(timers, Section::Neigh);
  atom.clear_ghosts();

  // Load balancing happens at rebuilds, where ghosts are already dropped and
  // migration piggybacks on the exchange path. Rebuilds are a global
  // decision, so the collectives below run on every rank in lockstep; the
  // allreduced ratio makes the rebalance trigger identical everywhere.
  bool migrated = false;
  balancer.last_imbalance = Balancer::imbalance(atom, mpi);
  if (balancer.enabled) {
    kk::profiling::count_event("balance.imbalance_ratio",
                               balancer.last_imbalance);
    if (balancer.last_imbalance > balancer.thresh &&
        balancer.recompute_cuts(atom, domain, mpi,
                                /*min_width=*/comm.cutghost * 1.01)) {
      comm.setup(domain);  // validate the new cuts against the ghost cutoff
      comm.migrate(atom, domain);
      ++balancer.nbalances;
      migrated = true;
    }
  }
  if (!migrated) comm.exchange(atom, domain);

  // Spatial sort between exchange and borders: ghosts are gone, so only the
  // owned rows permute; the list and partition below are built fresh from
  // the new order. Setup's rebuild must not advance the cadence: resuming
  // from a checkpoint replays setup() (as does the writer's own next run),
  // and an extra count here would shift every later sort off the schedule
  // the uninterrupted run follows, breaking bitwise-transparent restarts.
  if (setup_done) sorter.maybe_sort(atom, domain, neighbor.cutghost());

  comm.borders(atom, domain);
  neighbor.build(atom, domain);
  neighbor.store_build_positions(atom);
  neighbor.last_build = ntimestep;  // basis for the every/delay/ago decision
}

void Simulation::setup() {
  kk::profiling::ScopedRegion region("Simulation::setup");
  require(pair != nullptr, "no pair style defined");
  require(atom.nlocal > 0 || mpi != nullptr, "no atoms created");

  comm.mpi = mpi;  // serial when no simmpi communicator is attached
  pair->init(*this);
  neighbor.cutoff = pair->cutoff();
  neighbor.style = pair->neigh_style();
  neighbor.ghost_rows = pair->ghost_rows_needed();
  neighbor.execution_space = pair->execution_space;
  neighbor.newton =
      newton_override >= 0 ? newton_override != 0 : pair->newton();
  comm.cutghost = neighbor.cutghost();
  comm.setup(domain);

  for (auto& fix : fixes) {
    if (!fix->init_done) {
      fix->init(*this);
      fix->init_done = true;
    }
  }

  rebuild_neighbors();
  compute_forces(/*eflag=*/true);
  setup_done = true;
}

bool Simulation::overlap_active() const {
  return overlap_enabled && pair != nullptr &&
         pair->supports_overlap(neighbor.list);
}

kk::DeviceInstance& Simulation::instance_compute() {
  if (!instance_compute_)
    instance_compute_ = std::make_unique<kk::DeviceInstance>("compute");
  return *instance_compute_;
}

kk::DeviceInstance& Simulation::instance_comm() {
  if (!instance_comm_)
    instance_comm_ = std::make_unique<kk::DeviceInstance>("comm");
  return *instance_comm_;
}

void Simulation::compute_forces_overlap(bool eflag) {
  kk::DeviceInstance& ic = instance_compute();
  kk::DeviceInstance& cc = instance_comm();

  // Launch the interior pair kernel asynchronously: interior rows reference
  // only owned atoms, so they need no ghost data and can run concurrently
  // with the halo exchange below. All DualView flag bookkeeping happens
  // inside compute_interior on this thread before the task is enqueued.
  {
    SectionScope section(timers, Section::Pair);
    pair->compute_interior(*this, eflag, ic);
  }

  // Halo exchange on the comm instance. forward_positions writes only ghost
  // rows (index >= nlocal) that the interior kernel never reads, so the two
  // tasks are data-race free. The Comm bucket charges the caller's wait.
  {
    SectionScope section(timers, Section::Comm);
    Atom* a = &atom;
    CommBrick* c = &comm;
    cc.enqueue("CommBrick::forward_positions", [a, c] {
      kk::profiling::ScopedRegion r("CommBrick::forward_positions");
      c->forward_positions(*a);
    });
    cc.fence();
  }

  // Boundary pass: needs the fresh ghosts AND the interior pass's scatter
  // done. Fence only the instances this phase launched on — never the
  // global device — so an unrelated instance (e.g. a tool's) keeps running.
  {
    SectionScope section(timers, Section::Pair);
    ic.fence();
    pair->compute_boundary(*this, eflag);
  }

  // supports_overlap requires a full list and no reverse comm, so this
  // runs only the post_force hooks.
  finish_external_forces();
}

void Simulation::compute_forces(bool eflag) {
  // Sections are disjoint (the end-of-run breakdown sums them against loop
  // time), so Pair closes before reverse comm runs.
  {
    SectionScope section(timers, Section::Pair);
    // Zero forces in the pair style's execution space over owned + ghosts.
    if (pair->execution_space == ExecSpaceKind::Device)
      atom.zero_forces<kk::Device>();
    else
      atom.zero_forces<kk::Host>();

    pair->compute(*this, eflag);
  }
  finish_external_forces();
}

void Simulation::prepare_run() {
  if (!setup_done) setup();
  // Fixes added by the script since the last run still need initializing.
  for (auto& fix : fixes) {
    if (!fix->init_done) {
      fix->init(*this);
      fix->init_done = true;
    }
  }
}

void Simulation::run(bigint nsteps) {
  prepare_run();
  Verlet(*this).run(nsteps);
}

void Simulation::finish_external_forces() {
  // Ghost forces fold back onto their owners: half lists exploiting
  // Newton's third law, plus any style that writes ghost forces directly.
  if ((neighbor.style == NeighStyle::Half && neighbor.newton) ||
      pair->needs_reverse_comm) {
    SectionScope section(timers, Section::Comm);
    comm.reverse_forces(atom);
  }
  SectionScope section(timers, Section::Modify);
  for (auto& fix : fixes) fix->post_force(*this);
}

double Simulation::kinetic_energy() {
  atom.sync<kk::Host>(V_MASK | TYPE_MASK);
  const auto v = atom.k_v.h_view;
  const auto type = atom.k_type.h_view;
  double ke = 0.0;
  for (localint i = 0; i < atom.nlocal; ++i) {
    const double m = atom.mass_of_type(type(std::size_t(i)));
    ke += m * (v(std::size_t(i), 0) * v(std::size_t(i), 0) +
               v(std::size_t(i), 1) * v(std::size_t(i), 1) +
               v(std::size_t(i), 2) * v(std::size_t(i), 2));
  }
  return 0.5 * units.mvv2e * allreduce_sum(ke);
}

double Simulation::temperature() {
  const bigint n = global_natoms();
  if (n == 0) return 0.0;
  const double dof = 3.0 * double(n);
  return 2.0 * kinetic_energy() / (dof * units.boltz);
}

double Simulation::potential_energy() {
  return allreduce_sum(pair->eng_vdwl + pair->eng_coul);
}

double Simulation::pressure() {
  const bigint n = global_natoms();
  const double vol = domain.volume();
  const double t = temperature();
  double vsum = 0.0;
  for (int k = 0; k < 3; ++k) vsum += pair->virial[k];
  vsum = allreduce_sum(vsum);
  return (double(n) * units.boltz * t + vsum / 3.0) / vol * units.nktv2p;
}

void Verlet::begin(bigint nsteps) {
  Simulation& sim = sim_;
  nsteps_ = nsteps;
  step_ = 0;

  // Attach to the telemetry hub when it is streaming. Producer bookkeeping
  // (prev_*) seeds here so the first step's deltas are against run start.
  namespace tel = tools::telemetry;
  if (tel::active() && !sim.telemetry)
    sim.telemetry = tel::Hub::instance().attach_sim(sim.telemetry_label,
                                                    sim.telemetry_job_id);
  if (sim.telemetry) {
    tel::SimTelemetry& t = *sim.telemetry;
    t.prev_wall_s = 0.0;
    t.prev_launches = kk::profiling::total_launches();
    t.prev_device_launches = kk::profiling::total_device_launches();
  }

  // The first row precedes the loop clock, so no section times it (LAMMPS
  // prints it during setup).
  sim.thermo.header();
  sim.thermo.record(sim);

  // The end-of-run breakdown reports this run only: remember what each
  // section held when the loop started and subtract at the end.
  timers_before_ = sim.timers;
  nbuilds_before_ = sim.neighbor.nbuilds;
  ndanger_before_ = sim.neighbor.ndanger;
  nretries_before_ = sim.neighbor.nretries;
  loop_timer_.start();
}

Verlet::Phase Verlet::step_begin() {
  Simulation& sim = sim_;
  ++sim.ntimestep;
  ++step_;

  step_timers_ = sim.timers;  // publish_telemetry's per-step base

  Phase p;
  // Periodic checkpoint this step? Decided up front: the write happens at
  // end of step, but the step must also force a neighbor rebuild so a run
  // resumed from the file rebuilds the *same* list at setup (the bitwise
  // guarantee; LAMMPS likewise re-neighbors on restart outputs).
  p.checkpoint = sim.restart_every > 0 && !sim.restart_base.empty() &&
                 sim.ntimestep % sim.restart_every == 0;

  {
    SectionScope section(sim.timers, Section::Modify);
    for (auto& fix : sim.fixes) fix->initial_integrate(sim);
  }

  // Fault injection fires here — mid-step, integration half done but
  // forces/thermo not yet — the worst place a real node can die.
  sim.fault.maybe_fail(sim.ntimestep);

  // Neighbor list maintenance. The decision must be *global*: if any rank
  // rebuilds (entering the exchange/borders message pattern) all must.
  // The checkpoint flag and the every/delay gate are identical on all ranks
  // (builds are global, so `ago` agrees); only the distance check is local,
  // so only `check yes` pays an allreduce. Dangerous builds are counted
  // after the global decision so every rank's counter matches.
  bool rebuild = p.checkpoint;
  if (!rebuild) {
    rebuild = sim.neighbor.wants_rebuild(sim.ntimestep, sim.atom);
    if (sim.mpi && sim.neighbor.check)
      rebuild = sim.mpi->allreduce_max(rebuild ? 1.0 : 0.0) > 0.5;
    if (rebuild) sim.neighbor.note_dangerous(sim.ntimestep);
  }
  p.rebuild = rebuild;
  const bool thermo_step =
      sim.thermo.every > 0 && (sim.ntimestep % sim.thermo.every == 0);
  p.eflag = thermo_step || step_ == nsteps_;

  if (rebuild) {
    // Rebuild steps re-communicate ghosts inside rebuild_neighbors; the
    // force phase has nothing to overlap with.
    sim.rebuild_neighbors();
  } else if (sim.overlap_active()) {
    // Ghost forward happens inside the overlapped force phase, concurrent
    // with the interior pair kernel (docs/EXECUTION_MODEL.md).
    p.overlap = true;
  } else {
    SectionScope section(sim.timers, Section::Comm);
    sim.comm.forward_positions(sim.atom);
  }
  return p;
}

void Verlet::step_force(const Phase& p) {
  Simulation& sim = sim_;
  if (p.overlap)
    sim.compute_forces_overlap(p.eflag);
  else
    sim.compute_forces(p.eflag);
}

void Verlet::step_end(const Phase& p) {
  Simulation& sim = sim_;
  {
    SectionScope section(sim.timers, Section::Modify);
    for (auto& fix : sim.fixes) fix->final_integrate(sim);
    for (auto& fix : sim.fixes) fix->end_of_step(sim);
  }

  if (p.checkpoint || p.eflag) {
    SectionScope section(sim.timers, Section::Output);
    if (p.checkpoint)
      io::RestartWriter().write(
          sim, io::checkpoint_base(sim.restart_base, sim.ntimestep));
    if (p.eflag) sim.thermo.record(sim);
  }

  publish_telemetry(p);
}

Verlet::Phase Verlet::step() {
  const Phase p = step_begin();
  step_force(p);
  step_end(p);
  return p;
}

void Verlet::publish_telemetry(const Phase& p) {
  namespace tel = tools::telemetry;
  Simulation& sim = sim_;
  if (!sim.telemetry || !tel::active()) return;
  tel::SimTelemetry& t = *sim.telemetry;

  // Per-step deltas: section seconds since step start; wall time and
  // launches since the last sample (the producer bookkeeping). The launch
  // counters are process-global relaxed atomics, so under the batch server
  // a step's delta includes concurrent jobs' launches — live telemetry
  // trades exact attribution for a wait-free producer path. Clamp against
  // reset().
  const double wall = loop_timer_.seconds();
  const TimerSet sections = sim.timers.since(step_timers_);
  const std::uint64_t launches = kk::profiling::total_launches();
  const std::uint64_t dev = kk::profiling::total_device_launches();

  tel::StepSample s;
  s.step = sim.ntimestep;
  s.job_id = sim.telemetry_job_id;
  s.wall_ms = float((wall - t.prev_wall_s) * 1e3);
  s.pair_ms = float(sections.total(Section::Pair) * 1e3);
  s.neigh_ms = float(sections.total(Section::Neigh) * 1e3);
  s.comm_ms = float(sections.total(Section::Comm) * 1e3);
  s.launches = launches >= t.prev_launches
                   ? std::uint32_t(launches - t.prev_launches)
                   : 0;
  s.device_launches = dev >= t.prev_device_launches
                          ? std::uint32_t(dev - t.prev_device_launches)
                          : 0;
  s.rebuild = p.rebuild ? 1 : 0;
  s.overlap = p.overlap ? 1 : 0;
  s.nlocal = sim.atom.nlocal;
  s.imbalance = float(sim.balancer.last_imbalance);
  t.steps.push(s);

  t.prev_wall_s = wall;
  t.prev_launches = launches;
  t.prev_device_launches = dev;

  // Periodic coordinate capture for in-situ analysis. The step loop pays
  // for one packed copy (plus a host sync that thermo steps do anyway);
  // RDF/MSD run on the sink thread.
  const int every = tel::Hub::instance().config().coords_every;
  if (every > 0 && sim.ntimestep % every == 0) {
    sim.atom.sync<kk::Host>(X_MASK | TAG_MASK);
    const auto x = sim.atom.k_x.h_view;
    const auto tag = sim.atom.k_tag.h_view;
    const std::size_t n = std::size_t(sim.atom.nlocal);
    tel::CoordCapture::Buf buf = t.coords.begin(n);
    for (std::size_t i = 0; i < n; ++i)
      buf.set(i, x(i, 0), x(i, 1), x(i, 2), tag(i));
    const double prd[3] = {sim.domain.prd(0), sim.domain.prd(1),
                           sim.domain.prd(2)};
    t.coords.end(sim.ntimestep, prd);
  }
}

void Verlet::finish() {
  Simulation& sim = sim_;
  NeighSummary neigh;
  neigh.builds = sim.neighbor.nbuilds - nbuilds_before_;
  neigh.dangerous = sim.neighbor.ndanger - ndanger_before_;
  neigh.retries = sim.neighbor.nretries - nretries_before_;

  // Collective per-rank atom extremes for the imbalance summary line; must
  // run on every rank before breakdown()'s rank-0 print gate.
  BalanceSummary balance;
  const double nlocal = double(sim.atom.nlocal);
  if (sim.mpi != nullptr) {
    balance.max_atoms = sim.mpi->allreduce_max(nlocal);
    balance.min_atoms = sim.mpi->allreduce_min(nlocal);
    balance.avg_atoms =
        sim.mpi->allreduce_sum(nlocal) / double(sim.mpi->size());
  } else {
    balance.max_atoms = balance.min_atoms = balance.avg_atoms = nlocal;
  }
  balance.nbalances = sim.balancer.nbalances;
  balance.nsorts = sim.sorter.nsorts;

  sim.thermo.breakdown(sim, loop_timer_.seconds(), nsteps_,
                       sim.timers.since(timers_before_), neigh, balance);
}

void Verlet::run(bigint nsteps) {
  kk::profiling::ScopedRegion loop_region("Verlet::run");
  begin(nsteps);
  while (!done()) step();
  finish();
}

}  // namespace mlk
