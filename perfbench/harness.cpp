// perfbench harness: drives one benchmark workload through the engine's
// public API (Input, Simulation, the phase-split Verlet, server::Scheduler)
// and prints its raw measurements as one JSON line on stdout.
//
//   perfbench_harness <spec.json>   run the workload the spec describes
//   perfbench_harness --probe <n>   spin probe: effective parallelism of n
//                                   threads against one
//
// run.py generates the spec (script lines made from the workload seed),
// turns the raw numbers into metrics and checks them. This file only
// measures; tolerances and statistics live in run.py.
//
// Spans are recorded only in traced runs, around public calls made from
// here: every step (with its step_begin / step_force / step_end children),
// every set-up, every server cohort and job step, and every probe. They are
// kept in memory and written to the spec's spans_path when the run ends.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "kokkos/profiling.hpp"
#include "kokkos/threadpool.hpp"
#include "minilammps.hpp"
#include "reaxff/pair_reaxff_lite.hpp"
#include "server/scheduler.hpp"
#include "tools/json.hpp"
#include "tools/kernel_timer.hpp"

namespace {

using mlk::bigint;
namespace json = mlk::json;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Seconds since process start (the time base of every span).
double now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + num(v[i]);
  return out + "]";
}

std::string num_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m)
    out += (out.size() > 1 ? "," : "") + json::quote(k) + ":" + num(v);
  return out + "}";
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double t0, t1;
  int parent;    // index into the log, -1 for a root span
  bigint group;  // step id (or rep / job step) shared by related spans
};

/// In-memory span log. Single writer: rank 0's thread or the scheduler's.
class SpanLog {
 public:
  int open(const char* name, int parent, bigint group, double t0 = now()) {
    spans_.push_back({name, t0, t0, parent, group});
    return int(spans_.size()) - 1;
  }
  void close(int id, double t1 = now()) { spans_[std::size_t(id)].t1 = t1; }
  double duration(int id) const {
    const Span& s = spans_[std::size_t(id)];
    return s.t1 - s.t0;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    mlk::require(bool(out), "cannot write spans to " + path);
    out << "{\"fields\":[\"name\",\"t0\",\"t1\",\"parent\",\"group\"],"
           "\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "[" << json::quote(s.name) << ","
          << num(s.t0) << "," << num(s.t1) << "," << s.parent << ","
          << s.group << "]";
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Counts DualView deep copies (KokkosP begin_deep_copy events).
class DeepCopyCounter : public kk::profiling::Tool {
 public:
  void begin_deep_copy(const char*, const std::string&, const char*,
                       const std::string&, std::uint64_t bytes,
                       std::uint64_t) override {
    copies.fetch_add(1, std::memory_order_relaxed);
    this->bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> copies{0};
  std::atomic<std::uint64_t> bytes{0};
};

/// The profiling tools of a traced run, registered only around traced
/// segments or cohorts so untraced timing never pays for them.
struct TraceTools {
  std::shared_ptr<mlk::tools::KernelTimer> timer =
      std::make_shared<mlk::tools::KernelTimer>();
  std::shared_ptr<DeepCopyCounter> copies =
      std::make_shared<DeepCopyCounter>();

  void attach() {
    kk::profiling::register_tool(timer);
    kk::profiling::register_tool(copies);
  }
  void detach() {
    kk::profiling::deregister_tool(timer);
    kk::profiling::deregister_tool(copies);
  }

  /// Kernel time (deep-copy pseudo-kernels excluded) and the per-kernel
  /// seconds run.py reports, from one thread tag or, without one, all tags.
  void kernel_counters(std::optional<int> tag,
                       std::map<std::string, double>& c) const {
    const auto stats = tag ? timer->stats_for_tag(*tag) : timer->stats();
    double kernel_s = 0.0;
    for (const auto& [name, st] : stats)
      if (!name.starts_with("deep_copy[")) kernel_s += st.total_s;
    auto total = [&](const char* name) {
      auto it = stats.find(name);
      return it == stats.end() ? 0.0 : it->second.total_s;
    };
    c["kernel_s"] += kernel_s;
    c["snap_ui_s"] += total("SNAP::ComputeUi");
    c["snap_yi_s"] += total("SNAP::ComputeYi");
    c["snap_deidrj_s"] += total("SNAP::ComputeFusedDeidrj");
    c["deep_copies"] += double(copies->copies.load());
    c["deep_copy_bytes"] += double(copies->bytes.load());
  }
};

/// Process-global launch and timer readings, differenced around traced work.
struct Readings {
  double launches = 0, device_launches = 0;
  static Readings take() {
    return {double(kk::profiling::total_launches()),
            double(kk::profiling::total_device_launches())};
  }
  void add_delta(const Readings& before, std::map<std::string, double>& c) {
    c["launches"] += launches - before.launches;
    c["device_launches"] += device_launches - before.device_launches;
  }
};

// ---------------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------------

/// Seconds of a fixed kernel of the benchmark's own, which calls no engine
/// code: a dependent floating-point chain, the fastest of three
/// repetitions. Of the kernels tried (this one, a sweep over a 512 KB array
/// and a pointer chase through 4 MB), it tracked the host's drift best on
/// every workload.
double calibration_kernel() {
  double best = std::numeric_limits<double>::infinity();
  double x = 1.0;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now();
    for (int i = 0; i < 400000; ++i) x = x * 0.9999999 + 1e-9;
    best = std::min(best, now() - t0);
  }
  volatile double sink = x;  // keeps the work observable
  (void)sink;
  return best;
}

/// calibration_kernel() on `n` threads at once (the caller is one of them),
/// the workload's busy-thread count: the slowest thread, since a statically
/// partitioned pool waits for it.
double calibrate(int n) {
  std::vector<double> t(std::size_t(std::max(1, n)));
  std::vector<std::thread> extra;
  for (std::size_t k = 1; k < t.size(); ++k)
    extra.emplace_back([&t, k] { t[k] = calibration_kernel(); });
  t[0] = calibration_kernel();
  for (std::thread& th : extra) th.join();
  return *std::max_element(t.begin(), t.end());
}

// ---------------------------------------------------------------------------
// Collectives that degrade to identities in serial runs
// ---------------------------------------------------------------------------

struct Coll {
  simmpi::Comm* mpi = nullptr;
  bool root() const { return !mpi || mpi->rank() == 0; }
  void barrier() const {
    if (mpi) mpi->barrier();
  }
  double sum(double v) const { return mpi ? mpi->allreduce_sum(v) : v; }
  double max(double v) const { return mpi ? mpi->allreduce_max(v) : v; }
  double min(double v) const { return mpi ? mpi->allreduce_min(v) : v; }
};

/// Pins the calling thread, and the threads it starts later, to the n-th
/// CPU it may run on, so that every copy of a replicated workload has a CPU
/// of its own. Leaves the thread unpinned if there is no such CPU.
void pin_to_cpu(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0, seen = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || seen++ != n) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

// ---------------------------------------------------------------------------
// Neighbor-list audits and post-run probes (shared by MD and server runs)
// ---------------------------------------------------------------------------

std::uint64_t pair_key(mlk::tagint a, mlk::tagint b, bool unordered) {
  if (unordered && b < a) std::swap(a, b);
  return (std::uint64_t(a) << 32) ^ std::uint64_t(b);
}

/// In-cutoff pairs of the current configuration that the (possibly stale)
/// list does not hold, by global tag, against the public brute_force_list.
/// Owned rows only; half lists compare unordered pairs, since which image
/// of an owned-ghost pair a half list keeps depends on positions.
double count_missed_pairs(mlk::Simulation& sim) {
  mlk::Atom& atom = sim.atom;
  mlk::NeighborList& list = sim.neighbor.list;
  atom.sync<kk::Host>(mlk::X_MASK | mlk::TAG_MASK);
  list.k_neighbors.sync<kk::Host>();
  list.k_numneigh.sync<kk::Host>();
  const bool half = list.style == mlk::NeighStyle::Half;
  const auto tag = atom.k_tag.h_view;

  std::unordered_set<std::uint64_t> have;
  for (mlk::localint i = 0; i < list.inum; ++i)
    for (int c = 0; c < list.k_numneigh.h_view(std::size_t(i)); ++c) {
      const int j = list.k_neighbors.h_view(std::size_t(i), std::size_t(c));
      have.insert(pair_key(tag(std::size_t(i)), tag(std::size_t(j)), half));
    }

  const mlk::NeighborList ref = mlk::brute_force_list(
      atom, sim.domain, sim.neighbor.cutoff, list.style, list.newton,
      atom.nlocal);
  double missed = 0;
  for (mlk::localint i = 0; i < ref.inum; ++i)
    for (int c = 0; c < ref.k_numneigh.h_view(std::size_t(i)); ++c) {
      const int j = ref.k_neighbors.h_view(std::size_t(i), std::size_t(c));
      if (!have.count(pair_key(tag(std::size_t(i)), tag(std::size_t(j)), half)))
        missed += 1;
    }
  return missed;
}

/// Stored pairs and those within the force cutoff, over every stored row.
void count_useful_pairs(mlk::Simulation& sim, double& stored,
                        double& useful) {
  mlk::Atom& atom = sim.atom;
  mlk::NeighborList& list = sim.neighbor.list;
  atom.sync<kk::Host>(mlk::X_MASK);
  list.k_neighbors.sync<kk::Host>();
  list.k_numneigh.sync<kk::Host>();
  const auto x = atom.k_x.h_view;
  const double cutsq = sim.neighbor.cutoff * sim.neighbor.cutoff;
  stored = useful = 0;
  for (mlk::localint i = 0; i < list.inum + list.gnum; ++i)
    for (int c = 0; c < list.k_numneigh.h_view(std::size_t(i)); ++c) {
      const std::size_t a = std::size_t(i);
      const std::size_t b =
          std::size_t(list.k_neighbors.h_view(a, std::size_t(c)));
      const double dx = x(a, 0) - x(b, 0), dy = x(a, 1) - x(b, 1),
                   dz = x(a, 2) - x(b, 2);
      stored += 1;
      if (dx * dx + dy * dy + dz * dz <= cutsq) useful += 1;
    }
}

/// Step a Simulation n steps through the phase calls, untimed.
void advance(mlk::Simulation& sim, bigint n) {
  mlk::Verlet v(sim);
  v.begin(n);
  while (!v.done()) {
    const mlk::Verlet::Phase p = v.step_begin();
    v.step_force(p);
    v.step_end(p);
  }
}

struct ProbeSpec {
  int missed_samples = 1;
  int reps = 5;
};

/// Layer probes on a finished run's final state (traced runs only): the
/// neighbor-list audit at the step before each of the next rebuilds, list
/// usefulness, halo sizes, then timed forward/reverse/pair/build calls.
/// Every rank calls this; rank 0 records spans and counters.
void post_run_probes(mlk::Simulation& sim, const Coll& coll,
                     const ProbeSpec& ps, SpanLog& spans,
                     std::map<std::string, double>& c) {
  const bool root = coll.root();
  const mlk::Neighbor& nb = sim.neighbor;
  double missed = 0;
  for (int k = 0; k < ps.missed_samples; ++k) {
    const bigint every = std::max(1, nb.every);
    const bigint age = sim.ntimestep - nb.last_build;
    bigint n = ((every - 1 - age) % every + every) % every;
    if (n == 0) n = every;
    advance(sim, n);
    missed += count_missed_pairs(sim);
  }
  missed = coll.sum(missed);

  double stored = 0, useful = 0;
  count_useful_pairs(sim, stored, useful);
  const double pairs_rank = stored;
  stored = coll.sum(stored);
  useful = coll.sum(useful);
  const double nghost = coll.sum(double(sim.atom.nghost));
  const double nlocal = coll.sum(double(sim.atom.nlocal));
  const double fwd_bytes =
      coll.sum(double(sim.comm.forward_doubles_per_step()) * 8.0);
  const double avg_neigh = nb.list.avg_neighbors();

  auto probe = [&](const char* name, const auto& fn) {
    for (int r = 0; r < ps.reps; ++r) {
      coll.barrier();
      const int s = root ? spans.open(name, -1, r) : -1;
      fn();
      if (root) spans.close(s);
    }
  };
  // Forces are not used after this point, so the fold-back and pair probes
  // may overwrite them; the list build probe runs last.
  probe("probe.comm_forward", [&] { sim.comm.forward_positions(sim.atom); });
  probe("probe.comm_reverse", [&] { sim.comm.reverse_forces(sim.atom); });
  probe("probe.pair_compute", [&] { sim.pair->compute(sim, false); });
  probe("probe.neighbor_build",
        [&] { sim.neighbor.build(sim.atom, sim.domain); });

  if (!root) return;
  c["missed_pairs"] = missed;
  c["missed_samples"] = ps.missed_samples;
  c["stored_pairs"] = stored;
  c["useful_pairs"] = useful;
  c["stored_pairs_rank0"] = pairs_rank;
  c["avg_neighbors"] = avg_neigh;
  c["nghost"] = nghost;
  c["nlocal"] = nlocal;
  c["forward_bytes"] = fwd_bytes;
  if (auto* reax =
          dynamic_cast<mlk::PairReaxFFLite<kk::Host>*>(sim.pair.get())) {
    c["reax_bonds"] = double(reax->bonds().total_bonds());
    c["reax_nlocal"] = double(sim.atom.nlocal);
    c["reax_quad_survival"] = reax->quads().survival_fraction();
  }
}

std::vector<std::string> strings(const json::Value& v) {
  std::vector<std::string> out;
  for (const json::Value& s : v.arr) out.push_back(s.str);
  return out;
}

// ---------------------------------------------------------------------------
// MD workloads: one Simulation per rank, stepped phase by phase
// ---------------------------------------------------------------------------

/// Peak resident memory of the process, in MB. An MD run times its extra
/// set-ups while the simulation it continues is alive, which no user run
/// does, so it leaves their peak out: the high-water mark is read before a
/// set-up batch, and after it the freed heap is returned and the mark reset
/// to the current size. Where the reset is not permitted, the batches' peak
/// stays in.
class PeakRss {
 public:
  void before_batch() { peak_ = std::max(peak_, hwm_mb()); }
  void after_batch() const {
    malloc_trim(0);  // return the discarded simulations' heap first
    std::ofstream("/proc/self/clear_refs") << "5";
  }
  double peak_mb() const { return std::max(peak_, hwm_mb()); }

 private:
  static double hwm_mb() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
      if (line.starts_with("VmHWM:"))
        return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    return 0.0;
  }
  double peak_ = 0.0;
};
PeakRss g_peak_rss;

/// Untimed segments stepped after the first set-up, before timing starts.
constexpr int kWarmupSegments = 1;

/// Set-ups are timed in this many batches spread evenly over the run; the
/// first batch precedes the timed loop.
constexpr int kSetupBatches = 5;

/// Set-ups a run has made by now, out of `total`, `elapsed` seconds into a
/// timed stretch of `seconds`.
int setups_due(int total, double elapsed, double seconds) {
  const double share = seconds > 0 ? std::min(1.0, elapsed / seconds) : 1.0;
  const int batch = std::min(kSetupBatches - 1, int(kSetupBatches * share));
  return (total * (batch + 1) + kSetupBatches - 1) / kSetupBatches;
}

struct MdSpec {
  std::vector<std::string> script;
  int ranks = 1;
  int replicas = 1;  // independent copies stepped at once, one per thread
  int setups = 3;
  bigint segment = 50;
  double seconds = 10;
  bool trace = false;
  bigint ref_step = 0;  // > 0: also report TotEng at this step
  int busy = 1;         // ranks x pool threads
  ProbeSpec probes;
};

struct MdResult {
  std::vector<double> setup_s, step_s, traced_step_s;
  std::vector<double> cal_s;  // one per set-up batch
  double loop_s = 0, traced_loop_s = 0;
  bigint natoms = 0;
  double e_first = 0, e_last = 0;
  double e_ref = std::numeric_limits<double>::quiet_NaN();
  int qeq_max_iters = -1, qeq_maxiter = 0;
  std::vector<double> rebuild_steps;
  std::map<std::string, double> counters;
};

std::unique_ptr<mlk::Simulation> build_sim(
    const std::vector<std::string>& script, simmpi::Comm* mpi) {
  auto sim = std::make_unique<mlk::Simulation>();
  sim->mpi = mpi;
  sim->thermo.print = false;
  mlk::Input in(*sim);
  for (const std::string& line : script) in.line(line);
  sim->prepare_run();
  return sim;
}

/// One rank's run. Every rank steps; only rank 0 writes `spans`. A rank of
/// a multi-rank run shares one Simulation with the others through `mpi`,
/// and only rank 0 writes `out`. A replica runs a Simulation of its own and
/// uses `mpi` only to keep its segments and set-ups in step with the other
/// replicas; each replica writes its own `out`.
void md_rank(const MdSpec& spec, simmpi::Comm* mpi, bool replica,
             MdResult& out, SpanLog& spans) {
  const Coll coll{mpi};                        // run control
  const Coll sim_coll{replica ? nullptr : mpi};  // the Simulation's ranks
  const bool root = coll.root();
  const bool rec = replica || root;  // writes `out`
  if (replica) pin_to_cpu(mpi->rank());

  // Set-up: construction, the script, prepare_run. The first set-up makes
  // the simulation the run continues; the others are timed in batches
  // between timed segments and discarded, so their median sees the same
  // host conditions as the steps. A batch evicts the caches, so an untimed
  // segment follows each one.
  int setups_done = 0;
  auto setup = [&] {
    coll.barrier();
    const double t0 = now();
    std::unique_ptr<mlk::Simulation> s =
        build_sim(spec.script, replica ? nullptr : mpi);
    const double t1 = now();
    if (rec) out.setup_s.push_back(t1 - t0);
    if (root && spec.trace)
      spans.close(spans.open("setup", -1, setups_done, t0), t1);
    ++setups_done;
    return s;
  };
  auto setup_batch = [&](int due) {
    coll.barrier();
    if (root) g_peak_rss.before_batch();
    coll.barrier();  // no replica allocates before the mark is read
    while (setups_done < due) setup();
    coll.barrier();
    // Replicas time the kernel at once, each on its own thread.
    if (replica) out.cal_s.push_back(calibration_kernel());
    if (root) {
      if (!replica) out.cal_s.push_back(calibrate(spec.busy));
      g_peak_rss.after_batch();
    }
    coll.barrier();
  };
  std::unique_ptr<mlk::Simulation> sim = setup();
  setup_batch(setups_due(spec.setups, 0.0, spec.seconds));
  const double natoms = sim_coll.sum(double(sim->atom.nlocal));
  if (rec) out.natoms = bigint(natoms);

  auto* reax = dynamic_cast<mlk::PairReaxFFLite<kk::Host>*>(sim->pair.get());
  if (reax && rec) out.qeq_maxiter = reax->params().qeq_maxiter;

  TraceTools tools;
  const int root_tag = kk::profiling::thread_tag();
  double comm_traced_s = 0, traced_steps = 0;
  double qeq_iters = 0, qeq_steps = 0;

  auto segment = [&](bool timed, bool traced) {
    mlk::Verlet v(*sim);
    v.begin(spec.segment);
    while (!v.done()) {
      const bigint step = sim->ntimestep + 1;
      if (traced) traced_steps += 1;
      if (traced && root) {
        const int s = spans.open("step", -1, step);
        const int b = spans.open("step_begin", s, step);
        const mlk::Verlet::Phase p = v.step_begin();
        spans.close(b);
        const int f = spans.open("step_force", s, step);
        v.step_force(p);
        spans.close(f);
        const int e = spans.open("step_end", s, step);
        v.step_end(p);
        spans.close(e);
        spans.close(s);
        out.traced_step_s.push_back(spans.duration(s));
        out.traced_loop_s += spans.duration(s);
        if (p.rebuild) out.rebuild_steps.push_back(double(step));
      } else {
        const double t0 = now();
        const mlk::Verlet::Phase p = v.step_begin();
        v.step_force(p);
        v.step_end(p);
        const double dt = now() - t0;
        if (timed && rec) {
          out.step_s.push_back(dt);
          out.loop_s += dt;
        }
      }
      if (reax && rec) {
        out.qeq_max_iters =
            std::max(out.qeq_max_iters, reax->qeq().last_iterations());
        if (traced) qeq_iters += reax->qeq().last_iterations(), ++qeq_steps;
      }
    }
  };

  for (int w = 0; w < kWarmupSegments; ++w) segment(false, false);

  const std::size_t first_row = sim->thermo.rows().size();
  const double loop_start = now();
  for (int seg = 0;; ++seg) {
    // Traced runs alternate untraced and traced segments, so the tracing
    // overhead is measured against the same stretch of trajectory.
    const bool traced = spec.trace && seg % 2 == 1;
    std::map<std::string, double> before;
    Readings r0;
    if (traced) {
      coll.barrier();
      if (root) {
        tools.attach();
        before = sim->timers.all();
        before["builds"] = double(sim->neighbor.nbuilds);
        r0 = Readings::take();
      }
      comm_traced_s -= sim->timers.total("Comm");
      coll.barrier();
    }
    segment(true, traced);
    if (traced) {
      coll.barrier();
      comm_traced_s += sim->timers.total("Comm");
      if (root) {
        tools.detach();
        Readings::take().add_delta(r0, out.counters);
        auto& c = out.counters;
        c["timer_pair_s"] += sim->timers.total("Pair") - before["Pair"];
        c["timer_neigh_s"] += sim->timers.total("Neigh") - before["Neigh"];
        c["timer_comm_s"] += sim->timers.total("Comm") - before["Comm"];
        c["builds"] += double(sim->neighbor.nbuilds) - before["builds"];
      }
      coll.barrier();
    }
    const double elapsed = now() - loop_start;
    const bool enough = seg >= 1 && elapsed >= spec.seconds;
    if (coll.max(root && enough ? 1.0 : 0.0) > 0.5) break;
    const double due = coll.max(
        root ? double(setups_due(spec.setups, elapsed, spec.seconds)) : 0.0);
    if (setups_done < int(due)) {
      setup_batch(int(due));
      segment(false, false);
    }
  }
  setup_batch(spec.setups);

  if (rec) {
    const auto& rows = sim->thermo.rows();
    out.e_first = rows[first_row].etotal;
    out.e_last = rows.back().etotal;
    for (const mlk::ThermoRow& row : rows)
      if (spec.ref_step > 0 && row.step == spec.ref_step)
        out.e_ref = row.etotal;
  }

  if (!spec.trace) return;
  const double comm_ms = 1e3 * comm_traced_s / std::max(1.0, traced_steps);
  const double comm_max = sim_coll.max(comm_ms);
  const double comm_min = sim_coll.min(comm_ms);
  post_run_probes(*sim, sim_coll, spec.probes, spans, out.counters);
  if (!root) return;
  auto& c = out.counters;
  tools.kernel_counters(root_tag, c);
  c["comm_ms_per_step_max"] = comm_max;
  c["comm_ms_per_step_min"] = comm_min;
  c["qeq_iters"] = qeq_iters;
  c["qeq_steps"] = qeq_steps;
}

MdSpec md_spec(const json::Value& v) {
  MdSpec s;
  s.script = strings(v["script"]);
  s.ranks = int(v["ranks"].number);
  s.replicas = int(v["replicas"].number);
  s.setups = int(v["setups"].number);
  s.segment = bigint(v["segment"].number);
  s.seconds = v["seconds"].number;
  s.trace = v["trace"].boolean;
  s.ref_step = bigint(v["ref_step"].number);
  s.busy = s.ranks * s.replicas * int(v["threads"].number);
  s.probes.missed_samples = int(v["missed_samples"].number);
  s.probes.reps = int(v["probe_reps"].number);
  mlk::require(s.ranks >= 1 && s.replicas >= 1 && s.setups >= 1 &&
                   s.segment >= 1,
               "spec: ranks, replicas, setups and segment must be positive");
  mlk::require(s.replicas == 1 || (s.ranks == 1 && !s.trace),
               "spec: replicas need one rank and an untraced run");
  return s;
}

/// The timings and checks each replica reports.
std::string replica_json(const MdResult& r) {
  std::ostringstream o;
  o << "{\"setup_s\":" << num_list(r.setup_s)
    << ",\"step_s\":" << num_list(r.step_s)
    << ",\"cal_s\":" << num_list(r.cal_s)
    << ",\"energy_first\":" << num(r.e_first)
    << ",\"energy_last\":" << num(r.e_last)
    << ",\"qeq_max_iters\":" << r.qeq_max_iters << "}";
  return o.str();
}

std::string run_md(const json::Value& v, SpanLog& spans) {
  const MdSpec spec = md_spec(v);
  std::vector<MdResult> outs(std::size_t(spec.replicas));
  MdResult& out = outs[0];
  double e_serial = std::numeric_limits<double>::quiet_NaN();
  // An exception from the engine (lost atoms, an injected fault) is a
  // failed run, reported with the result rather than as a harness error.
  std::string error;
  try {
    if (spec.ranks == 1 && spec.replicas == 1) {
      md_rank(spec, nullptr, false, out, spans);
    } else {
      const bool replicas = spec.replicas > 1;
      simmpi::World world(replicas ? spec.replicas : spec.ranks);
      world.run([&](simmpi::Comm& comm) {
        md_rank(spec, &comm, replicas,
                outs[replicas ? std::size_t(comm.rank()) : 0], spans);
      });
    }
    // The same script on one rank, to the reference step (multi-rank runs).
    if (spec.ref_step > 0 && spec.ranks > 1) {
      auto sim = build_sim(spec.script, nullptr);
      advance(*sim, spec.ref_step);
      e_serial = sim->thermo.rows().back().etotal;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::ostringstream o;
  o << "\"error\":" << (error.empty() ? "null" : json::quote(error)) << ",";
  o << "\"natoms\":" << out.natoms << ",\"replicas\":[";
  for (std::size_t r = 0; r < outs.size(); ++r)
    o << (r ? "," : "") << replica_json(outs[r]);
  o << "],\"traced_step_s\":" << num_list(out.traced_step_s)
    << ",\"loop_s\":" << num(out.loop_s)
    << ",\"traced_loop_s\":" << num(out.traced_loop_s)
    << ",\"energy_ref\":" << num(out.e_ref)
    << ",\"energy_ref_serial\":" << num(e_serial)
    << ",\"qeq_maxiter\":" << out.qeq_maxiter
    << ",\"rebuild_steps\":" << num_list(out.rebuild_steps)
    << ",\"counters\":" << num_map(out.counters);
  return o.str();
}

// ---------------------------------------------------------------------------
// Server workload: a cohort of LJ jobs through server::Scheduler
// ---------------------------------------------------------------------------

/// Per-job wall-clock stamps taken by the bench_clock fix at end_of_step,
/// plus the job's engine timers at its final step. Indexed by replica, then
/// job slot. A replica's clocks are written only by the thread that steps
/// its jobs (the scheduler runs with fan-out off, and solo runs step on the
/// replica's own thread).
struct JobClock {
  std::vector<double> stamps;
  double pair_s = 0, neigh_s = 0, comm_s = 0, builds = 0;
};
std::vector<std::vector<JobClock>> g_clocks;

/// `fix <id> all bench_clock <replica> <slot> <last_step>`: records when
/// each step of its job ends. It touches no atom data, so trajectories are
/// unchanged.
class ClockFix : public mlk::Fix {
 public:
  void parse_args(const std::vector<std::string>& args) override {
    mlk::require(args.size() == 3,
                 "bench_clock: expected <replica> <slot> <last_step>");
    replica_ = std::stoul(args[0]);
    slot_ = std::stoul(args[1]);
    last_ = std::stoll(args[2]);
    mlk::require(replica_ < g_clocks.size() &&
                     slot_ < g_clocks[replica_].size(),
                 "bench_clock: replica or slot out of range");
  }
  void end_of_step(mlk::Simulation& sim) override {
    JobClock& c = g_clocks[replica_][slot_];
    c.stamps.push_back(now());
    if (sim.ntimestep == last_) {
      c.pair_s = sim.timers.total("Pair");
      c.neigh_s = sim.timers.total("Neigh");
      c.comm_s = sim.timers.total("Comm");
      c.builds = double(sim.neighbor.nbuilds);
    }
  }

 private:
  std::size_t replica_ = 0, slot_ = 0;
  bigint last_ = 0;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

/// What one replica of the server workload measured and checked.
struct ServerResult {
  std::vector<double> setup_s, cohort_s, traced_cohort_s, step_s;
  std::vector<double> cal_s;  // one per untraced cohort
  std::vector<std::string> failures;
  double atom_steps = 0, attempted = 0, failed = 0;
  std::string error;
  std::map<std::string, double> counters;
};

/// One replica: solo reference runs, then cohorts until `seconds` have
/// passed. `coll` keeps the replicas' cohorts and set-up batches in step.
void server_replica(const json::Value& v,
                    const std::vector<mlk::server::JobSpec>& specs,
                    std::size_t rep, const Coll& coll, ServerResult& out,
                    SpanLog& spans) {
  using namespace mlk::server;
  const double seconds = v["seconds"].number;
  const bool trace = v["trace"].boolean;
  const int setups = int(v["setups"].number);
  ProbeSpec ps;
  ps.missed_samples = int(v["missed_samples"].number);
  ps.reps = int(v["probe_reps"].number);
  const std::size_t njobs = specs.size();
  std::vector<JobClock>& clocks = g_clocks[rep];

  SchedulerConfig cfg;
  cfg.max_resident = int(v["max_resident"].number);
  cfg.batch = true;
  cfg.fanout = false;

  // Set-up: admitting the whole cohort (Job::start builds each job's
  // Simulation, runs its script and prepare_run), timed in batches: the
  // first precedes the solo runs, the others are spread between cohorts.
  auto cohort_setup = [&] {
    std::vector<std::unique_ptr<Job>> jobs;
    const double t0 = now();
    for (std::size_t i = 0; i < njobs; ++i) {
      jobs.push_back(std::make_unique<Job>(int(i), specs[i]));
      jobs.back()->start(0, "", false);
    }
    const double t1 = now();
    if (trace)
      spans.close(
          spans.open("setup", -1, bigint(out.setup_s.size()), t0), t1);
    out.setup_s.push_back(t1 - t0);
  };
  // As in the MD runs, the set-up batches' memory is left out of the peak.
  auto setups_to = [&](int due) {
    coll.barrier();
    if (coll.root()) g_peak_rss.before_batch();
    coll.barrier();
    while (int(out.setup_s.size()) < due) cohort_setup();
    coll.barrier();
    if (coll.root()) g_peak_rss.after_batch();
    coll.barrier();
  };

  // An exception outside the per-job handling (a set-up that throws, say)
  // is one more failed attempt, reported with the result.
  out.attempted = double(njobs);
  TraceTools tools;
  std::map<std::string, double>& c = out.counters;
  try {
    setups_to(setups_due(setups, 0.0, seconds));

    // Solo reference for every job: same script, stepped alone. A solo run
    // that fails counts as a failed attempt, as does every cohort job that
    // does not complete bitwise equal to its solo run.
    std::vector<std::vector<double>> solo(njobs);
    std::unique_ptr<Job> probe_job;
    for (std::size_t i = 0; i < njobs; ++i) {
      auto job = std::make_unique<Job>(int(i), specs[i]);
      try {
        job->start(0, "", false);
        out.atom_steps +=
            double(job->sim->atom.natoms) * double(specs[i].steps);
        while (!job->verlet->done()) {
          const mlk::Verlet::Phase p = job->verlet->step_begin();
          job->verlet->step_force(p);
          job->verlet->step_end(p);
        }
        solo[i] = capture_state(*job->sim);
      } catch (const std::exception& e) {
        out.failed += 1;
        out.failures.push_back(specs[i].name + " solo: " + e.what());
        continue;
      }
      if (!probe_job) probe_job = std::move(job);
    }

    const double loop_start = now();
    for (int k = 0;; ++k) {
      const bool enough = k >= 2 && now() - loop_start >= seconds;
      if (coll.max(coll.root() && enough ? 1.0 : 0.0) > 0.5) break;
      const bool traced = trace && k % 2 == 1;
      for (JobClock& jc : clocks) jc = {};
      JobQueue queue;
      for (const JobSpec& s : specs) queue.submit(s);
      queue.close();
      Scheduler sched(queue, cfg);
      Readings r0;
      if (traced) {
        tools.attach();
        r0 = Readings::take();
      }
      coll.barrier();
      const double t0 = now();
      sched.run();
      const double t1 = now();
      if (traced) {
        tools.detach();
        Readings::take().add_delta(r0, c);
      }
      (traced ? out.traced_cohort_s : out.cohort_s).push_back(t1 - t0);

      for (const JobResult& r : sched.results()) {
        out.attempted += 1;
        const bool ok = r.state == JobState::Completed &&
                        !solo[std::size_t(r.id)].empty() &&
                        bitwise_equal(r.state_xv, solo[std::size_t(r.id)]);
        if (ok) continue;
        out.failed += 1;
        if (out.failures.size() < 8)
          out.failures.push_back(
              r.name + ": " + to_string(r.state) +
              (r.error.empty() ? " (state differs from solo run)"
                               : " " + r.error));
      }

      const int cohort = traced ? spans.open("cohort", -1, k, t0) : -1;
      if (traced) spans.close(cohort, t1);
      for (const JobClock& jc : clocks) {
        for (std::size_t s = 1; s < jc.stamps.size(); ++s) {
          if (!traced) {
            out.step_s.push_back(jc.stamps[s] - jc.stamps[s - 1]);
          } else {
            spans.close(spans.open("job_step", cohort, bigint(s) + 1,
                                   jc.stamps[s - 1]),
                        jc.stamps[s]);
          }
        }
        if (traced) {
          c["timer_pair_s"] += jc.pair_s;
          c["timer_neigh_s"] += jc.neigh_s;
          c["timer_comm_s"] += jc.comm_s;
          c["builds"] += jc.builds;
        }
      }
      if (traced) {
        const Scheduler::Stats& st = sched.stats();
        c["rounds"] = double(st.rounds);
        c["fused_launches"] = double(st.fused_launches);
        c["fused_jobs"] = double(st.fused_jobs);
        c["cohort_job_steps"] = double(st.steps);
        c["solo_forces"] = double(st.solo_forces);
        c["traced_job_steps"] += double(st.steps);
      }
      if (!traced) out.cal_s.push_back(calibrate(1));
      setups_to(int(coll.max(
          coll.root() ? setups_due(setups, now() - loop_start, seconds)
                      : 0.0)));
    }
    setups_to(setups);

    if (trace) {
      tools.kernel_counters(std::nullopt, c);
      if (probe_job) post_run_probes(*probe_job->sim, Coll{}, ps, spans, c);
    }
  } catch (const std::exception& e) {
    out.attempted += 1;
    out.failed += 1;
    out.error = e.what();
  }
}

std::string run_server(const json::Value& v, SpanLog& spans) {
  const int replicas = int(v["replicas"].number);
  mlk::require(replicas >= 1 && (replicas == 1 || !v["trace"].boolean),
               "spec: replicas must be positive, and 1 in a traced run");

  // Each replica's jobs carry its index in their bench_clock fix.
  std::vector<std::vector<mlk::server::JobSpec>> specs(
      static_cast<std::size_t>(replicas));
  for (std::size_t r = 0; r < specs.size(); ++r)
    for (const json::Value& j : v["jobs"].arr) {
      mlk::server::JobSpec s;
      s.name = j["name"].str;
      s.setup = strings(j["setup"]);
      s.steps = bigint(j["steps"].number);
      s.setup.push_back("fix bench_clock all bench_clock " +
                        std::to_string(r) + " " +
                        std::to_string(specs[r].size()) + " " +
                        std::to_string(s.steps));
      specs[r].push_back(std::move(s));
    }
  const std::size_t njobs = specs[0].size();
  mlk::require(njobs >= 1, "spec: server workload needs jobs");
  g_clocks.assign(std::size_t(replicas), std::vector<JobClock>(njobs));
  mlk::StyleRegistry::instance().add_fix(
      "bench_clock", [](mlk::ExecSpaceKind) -> std::unique_ptr<mlk::Fix> {
        return std::make_unique<ClockFix>();
      });

  std::vector<ServerResult> outs(static_cast<std::size_t>(replicas));
  if (replicas == 1) {
    server_replica(v, specs[0], 0, Coll{}, outs[0], spans);
  } else {
    simmpi::World world(replicas);
    world.run([&](simmpi::Comm& comm) {
      const std::size_t r = std::size_t(comm.rank());
      pin_to_cpu(comm.rank());
      server_replica(v, specs[r], r, Coll{&comm}, outs[r], spans);
    });
  }

  double attempted = 0, failed = 0;
  std::string error;
  std::vector<std::string> failures;
  for (const ServerResult& r : outs) {
    attempted += r.attempted;
    failed += r.failed;
    if (error.empty()) error = r.error;
    for (const std::string& f : r.failures)
      if (failures.size() < 8) failures.push_back(f);
  }
  const ServerResult& out = outs[0];
  std::ostringstream o;
  o << "\"error\":" << (error.empty() ? "null" : json::quote(error))
    << ",\"jobs\":" << njobs
    << ",\"atom_steps_per_cohort\":" << num(out.atom_steps)
    << ",\"replicas\":[";
  for (std::size_t r = 0; r < outs.size(); ++r)
    o << (r ? "," : "") << "{\"setup_s\":" << num_list(outs[r].setup_s)
      << ",\"cohort_s\":" << num_list(outs[r].cohort_s)
      << ",\"cal_s\":" << num_list(outs[r].cal_s)
      << ",\"step_s\":" << num_list(outs[r].step_s) << "}";
  o << "],\"traced_cohort_s\":" << num_list(out.traced_cohort_s)
    << ",\"attempted\":" << num(attempted) << ",\"failed\":" << num(failed)
    << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i)
    o << (i ? "," : "") << json::quote(failures[i]);
  o << "],\"counters\":" << num_map(out.counters);
  return o.str();
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

double spin(std::uint64_t iters) {
  volatile double x = 0.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x + 1e-9 * double(i & 7);
  return x;
}

/// Seconds for n threads each doing `iters` iterations of spin work.
double spin_wall(int n, std::uint64_t iters) {
  const double t0 = now();
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) threads.emplace_back([iters] { spin(iters); });
  for (std::thread& t : threads) t.join();
  return now() - t0;
}

int run_probe(int n) {
  std::uint64_t iters = 1 << 20;
  while (spin_wall(1, iters) < 0.05) iters *= 2;
  const double t1 = spin_wall(1, iters);
  const double tn = spin_wall(n, iters);
  std::printf("{\"threads\":%d,\"t1_s\":%s,\"tn_s\":%s,\"effective\":%s}\n", n,
              num(t1).c_str(), num(tn).c_str(),
              num(double(n) * t1 / tn).c_str());
  return 0;
}

const char* simd_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "baseline";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::string(argv[1]) == "--probe")
      return run_probe(std::max(1, std::atoi(argv[2])));
    mlk::require(argc == 2, "usage: perfbench_harness <spec.json> | --probe <n>");

    std::ifstream in(argv[1]);
    mlk::require(bool(in), std::string("cannot read spec ") + argv[1]);
    std::stringstream text;
    text << in.rdbuf();
    const json::Value spec = json::parse(text.str());

    // Pinning: the pool must have exactly the threads the workload asked for.
    const int threads = kk::ThreadPool::instance().size();
    mlk::require(threads == int(spec["threads"].number),
                 "thread pool has " + std::to_string(threads) +
                     " threads, spec pins " +
                     std::to_string(int(spec["threads"].number)));
    mlk::init_all();

    SpanLog spans;
    std::string body;
    if (spec["kind"].str == "md")
      body = run_md(spec, spans);
    else if (spec["kind"].str == "server")
      body = run_server(spec, spans);
    else
      mlk::fatal("spec: unknown kind '" + spec["kind"].str + "'");

    if (spec["trace"].boolean) spans.write(spec["spans_path"].str);
    std::printf("{\"kind\":%s,\"pool_threads\":%d,\"simd\":\"%s\","
                "\"build_type\":\"%s\",\"peak_rss_mb\":%s,%s}\n",
                json::quote(spec["kind"].str).c_str(), threads, simd_isa(),
                PERFBENCH_BUILD_TYPE, num(g_peak_rss.peak_mb()).c_str(),
                body.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
