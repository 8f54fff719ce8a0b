// Real-time telemetry hub (docs/OBSERVABILITY.md): hot paths publish
// fixed-size samples into wait-free SPSC rings (telemetry_ring.hpp); one
// consumer thread (the sink) drains the rings on an interval and serves
//
//   * a point-in-time JSON snapshot, atomically replaced (tmp + rename) at
//     the configured path — poll it with `watch cat`, a dashboard, or the
//     tier-1 validator;
//   * an appendable NDJSON tail at <path>.ndjson — one JSON object per
//     sample, streamable with `tail -f`;
//   * in-situ analysis (RDF + MSD, tools/telemetry/insitu.hpp) computed on
//     the consumer thread from coordinates the step loop captured, so the
//     structural diagnostics run live without stalling a single step.
//
// Activation: MLK_TELEMETRY=<path> (src/tools/observability.cpp) or the
// `telemetry <path> [...]` input command. When the hub is inactive every
// producer site is a single relaxed atomic load.
//
// Producer topology (the SPSC discipline):
//   * each Simulation owns a SimTelemetry block: a step ring and a thermo
//     ring whose producer is whichever thread drives that Simulation's
//     Verlet phases (one at a time — the batch scheduler's round fences
//     order handoffs), plus a CoordCapture double buffer;
//   * each Scheduler owns a SchedTelemetry block: one ring of scheduler
//     events whose producer is the scheduler thread.
// The sink is the single consumer of every ring.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tools/telemetry/insitu.hpp"
#include "tools/telemetry/telemetry_ring.hpp"

namespace mlk::tools::telemetry {

// ---------------------------------------------------------------------------
// Sample types — PODs, trivially copyable (TelemetryRing requirement).
// ---------------------------------------------------------------------------

/// One Verlet step: wall time plus the Pair/Neigh/Comm bucket deltas and the
/// kernel-launch delta (kk::profiling relaxed totals) for this step.
struct StepSample {
  std::int64_t step = 0;
  std::int32_t job_id = -1;  // batch-server job id; -1 outside the server
  float wall_ms = 0.0f;
  float pair_ms = 0.0f;
  float neigh_ms = 0.0f;
  float comm_ms = 0.0f;
  std::uint32_t launches = 0;         // kernel launches during this step
  std::uint32_t device_launches = 0;  // ... of which device-space
  std::uint8_t rebuild = 0;           // neighbor list rebuilt this step
  std::uint8_t overlap = 0;           // force phase took the overlapped path
  std::int32_t nlocal = 0;            // owned atoms on this rank
  float imbalance = 1.0f;  // max/avg per-rank nlocal at the last rebuild
};

/// One recorded thermo row (T / PE / KE / pressure).
struct ThermoSample {
  std::int64_t step = 0;
  std::int32_t job_id = -1;
  double temp = 0.0;
  double pe = 0.0;
  double ke = 0.0;
  double press = 0.0;
};

/// Batch-server scheduler events (src/server/scheduler.cpp).
enum class SchedKind : std::int32_t {
  Admit = 0,      // job admitted to the resident cohort
  Round = 1,      // one lockstep scheduling round completed
  JobFinish = 2,  // job retired (completed or failed)
};

struct SchedSample {
  std::int32_t kind = std::int32_t(SchedKind::Round);
  std::int32_t job_id = -1;     // Admit / JobFinish
  std::int64_t round = 0;
  std::int32_t queue_depth = 0; // jobs still waiting in the queue
  std::int32_t in_flight = 0;   // resident (co-scheduled) jobs
  float round_ms = 0.0f;        // dispatch-to-fence latency (Round)
};

// ---------------------------------------------------------------------------
// CoordCapture — seqlock-stamped double buffer for sampled coordinates.
// ---------------------------------------------------------------------------

/// The step loop periodically copies owned-atom coordinates (and tags, so
/// the consumer can follow identities across reorders) into one of two
/// slots; the sink copies the newest complete slot out for in-situ
/// analysis. Latest-wins by design: an unread capture overwritten by a
/// newer one is not a "drop" — the analysis only ever wants the freshest
/// configuration.
///
/// The producer is wait-free except when a capture needs a larger buffer
/// (first capture, or atom count grew): the regrow allocates fresh arrays
/// and retires the old ones to a keep-alive list that is only freed on
/// destruction, so a concurrently reading consumer dereferences valid (if
/// stale) memory and the stamp check rejects the torn copy.
class CoordCapture {
 public:
  struct Snapshot {
    std::int64_t step = -1;
    std::uint64_t gen = 0;  // capture generation (monotonic)
    std::vector<double> x;  // packed x0,y0,z0,x1,...
    std::vector<std::int64_t> tag;
    double prd[3] = {0.0, 0.0, 0.0};
    std::size_t natoms() const { return tag.size(); }
  };

  /// Producer: begin a capture of `natoms` atoms; fill the returned buffers
  /// (x: 3*natoms doubles, tag: natoms entries) through set(), then call
  /// end().
  struct Buf {
    double* x = nullptr;
    std::int64_t* tag = nullptr;
    /// Atom i's coordinates and tag, stored as relaxed atomics: a reader
    /// may be copying this slot concurrently (its stamp check discards
    /// that copy).
    void set(std::size_t i, double x0, double x1, double x2,
             std::int64_t t) const {
      store_relaxed(x[3 * i + 0], x0);
      store_relaxed(x[3 * i + 1], x1);
      store_relaxed(x[3 * i + 2], x2);
      store_relaxed(tag[i], t);
    }
  };
  Buf begin(std::size_t natoms);
  void end(std::int64_t step, const double prd[3]);

  /// Consumer: copy out the newest complete capture. False when nothing was
  /// ever captured, nothing newer than out.gen exists, or every bounded
  /// retry lost the race with the producer.
  bool read(Snapshot& out) const;

  /// Completed captures (producer cursor).
  std::uint64_t captures() const {
    return count_.load(std::memory_order_acquire);
  }

 private:
  // Everything a reader copies is atomic; the stamp says whether the copy
  // is one whole capture. The arrays are published (release) before the
  // count that indexes them, so a reader that sees a count also sees
  // arrays large enough for it.
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<double*> x{nullptr};
    std::atomic<std::int64_t*> tag{nullptr};
    std::size_t cap = 0;  // atoms the arrays can hold (producer-only)
    std::atomic<std::size_t> n{0};  // atoms in this capture
    std::atomic<std::int64_t> step{-1};
    std::atomic<double> prd[3] = {0.0, 0.0, 0.0};
  };

  Slot slots_[2];
  alignas(64) std::atomic<std::uint64_t> count_{0};  // completed captures
  // Producer-owned storage; retired (regrown-away) arrays stay alive here.
  std::vector<std::unique_ptr<double[]>> x_storage_;
  std::vector<std::unique_ptr<std::int64_t[]>> tag_storage_;
};

// ---------------------------------------------------------------------------
// Per-producer blocks
// ---------------------------------------------------------------------------

/// Everything one Simulation publishes. Producer-side bookkeeping (prev_*)
/// is only touched by the stepping thread.
struct SimTelemetry {
  std::string label = "main";
  std::int32_t job_id = -1;

  TelemetryRing<StepSample> steps{1024};
  TelemetryRing<ThermoSample> thermo{512};
  CoordCapture coords;

  // Producer bookkeeping for per-step deltas (set by Verlet::begin /
  // updated by the step publisher).
  double prev_wall_s = 0.0;
  std::uint64_t prev_launches = 0;
  std::uint64_t prev_device_launches = 0;
};

/// Everything one batch-server Scheduler publishes.
struct SchedTelemetry {
  std::string label = "server";
  TelemetryRing<SchedSample> events{512};
};

/// Terminal accounting handed back when a producer detaches — the batch
/// server copies this into JobResult so per-job telemetry attribution
/// survives long server runs (no reliance on the atexit flush).
struct TelemetrySummary {
  std::uint64_t steps_published = 0;
  std::uint64_t thermo_published = 0;
  std::uint64_t coord_captures = 0;
  std::uint64_t drops = 0;  // ring samples lost to drop-oldest backpressure
  std::int64_t last_step = -1;
};

// ---------------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------------

struct Config {
  std::string path;        // snapshot file; NDJSON tail at <path>.ndjson
  int interval_ms = 50;    // sink drain interval
  int coords_every = 50;   // steps between coordinate captures (0 = off)
  int rdf_bins = 50;       // in-situ RDF bins
  double rdf_rcut = 2.5;   // in-situ RDF cutoff (distance units)
  /// Subsample cap for the O(n^2) in-situ RDF. Sized so a sink pass stays
  /// well under a millisecond: the consumer thread competes for cores with
  /// the step loop, and bench_overhead gates the whole stream (default
  /// config) at <2% step time even on a single-core host.
  std::size_t insitu_max_atoms = 256;
};

/// True when the hub is streaming — the producer-side fast-path guard
/// (single relaxed atomic load).
bool active();

class Hub {
 public:
  /// Process-wide hub (leaked on purpose, like the profiling registries, so
  /// atexit flushes never race static destruction).
  static Hub& instance();

  /// Start the sink thread streaming to cfg.path. Idempotent while running
  /// (reconfiguring requires stop() first). Registers an atexit flush.
  void start(const Config& cfg);

  /// Drain everything, write a final snapshot, stop the sink. Idempotent.
  void stop();

  bool running() const;
  const Config& config() const { return cfg_; }

  /// Register a Simulation's telemetry block. The caller (and the hub)
  /// share ownership; the producer keeps publishing through the returned
  /// pointer until detach.
  std::shared_ptr<SimTelemetry> attach_sim(std::string label,
                                           std::int32_t job_id);
  /// Final-drain a Simulation's rings (with attribution) into the stream,
  /// fill `summary` (may be null), and unregister. Safe concurrently with
  /// the sink: consumer-side work is serialized on one mutex.
  void detach_sim(const std::shared_ptr<SimTelemetry>& st,
                  TelemetrySummary* summary);

  std::shared_ptr<SchedTelemetry> attach_sched(std::string label);
  void detach_sched(const std::shared_ptr<SchedTelemetry>& st);

  /// One synchronous drain + snapshot pass on the caller's thread (tests,
  /// and the `telemetry flush` input command).
  void drain_now();

  /// Ring samples lost to backpressure across all producers ever attached
  /// (detached producers' drops are folded in at detach).
  std::uint64_t total_drops() const;

  /// Snapshot passes completed (tests / smoke sanity).
  std::uint64_t passes() const {
    return passes_.load(std::memory_order_relaxed);
  }

 private:
  Hub() = default;

  struct SinkSimState;  // consumer-side per-sim aggregation (telemetry.cpp)

  void sink_loop();
  void drain_pass();
  void drain_sim(SimTelemetry& st, SinkSimState& state);
  void drain_sched(SchedTelemetry& st);
  void write_snapshot();
  void append_line(const std::string& line);
  void flush_pending();

  Config cfg_;

  mutable std::mutex reg_mu_;  // producer registry
  std::vector<std::shared_ptr<SimTelemetry>> sims_;
  std::vector<std::shared_ptr<SchedTelemetry>> scheds_;

  // Serializes every consumer-side operation (sink pass, detach drains,
  // drain_now). Producers never touch it.
  mutable std::mutex drain_mu_;
  std::vector<std::unique_ptr<SinkSimState>> sim_states_;
  /// Recently detached producers, kept (capped) so snapshots still show a
  /// job that just finished — a dashboard polling a long server run sees
  /// terminal summaries, not vanishing entries.
  struct FinishedSim {
    std::string name;
    std::int32_t job_id = -1;
    TelemetrySummary sum;
  };
  std::vector<FinishedSim> finished_;
  SchedSample last_sched_;       // newest scheduler event seen
  bool have_sched_ = false;
  std::uint64_t detached_drops_ = 0;
  std::uint64_t ndjson_lines_ = 0;
  std::string pending_;  // NDJSON lines awaiting flush
  std::atomic<std::uint64_t> passes_{0};

  std::mutex run_mu_;  // start/stop lifecycle
  std::condition_variable wake_;
  bool stop_requested_ = false;
  std::thread sink_;
  bool running_ = false;
};

}  // namespace mlk::tools::telemetry
