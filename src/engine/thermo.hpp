// Thermo output: periodic rows of step / temperature / energies / pressure,
// printed like LAMMPS and retained in memory so tests and benches can make
// assertions about conservation and trajectories.
#pragma once

#include <vector>

#include "util/timer.hpp"
#include "util/types.hpp"

namespace mlk {

class Simulation;

struct ThermoRow {
  bigint step = 0;
  double temp = 0.0;
  double pe = 0.0;
  double ke = 0.0;
  double etotal = 0.0;
  double press = 0.0;
};

/// Per-run neighbor-list maintenance counters for the end-of-run summary
/// (deltas over the run, computed by Verlet::run).
struct NeighSummary {
  bigint builds = 0;
  bigint dangerous = 0;  // see Neighbor::note_dangerous
  bigint retries = 0;    // resize-and-retry overflow passes
};

/// End-of-run load-balance summary (docs/DECOMPOSITION.md). The per-rank
/// atom extremes are collective, so Verlet::finish gathers them on every
/// rank *before* breakdown()'s rank-0 print gate.
struct BalanceSummary {
  double max_atoms = 0.0;  // max per-rank nlocal at run end
  double min_atoms = 0.0;
  double avg_atoms = 0.0;
  bigint nbalances = 0;    // RCB rebalances during the run
  bigint nsorts = 0;       // spatial sorts during the run
};

class Thermo {
 public:
  bigint every = 100;   // output interval (0 = only first/last)
  bool print = true;    // write to stdout (rank 0 only)

  void header() const;
  /// Evaluate and record a row for the current step.
  void record(Simulation& sim);

  /// LAMMPS-style end-of-run timing table (Pair/Neigh/Comm/Modify/Output/
  /// Other: seconds, % of loop time, per-step average) plus the
  /// neighbor-build summary (builds / dangerous builds / retries), printed
  /// on rank 0 after each `run`. `run` holds the seconds each section
  /// accumulated over this run only.
  void breakdown(Simulation& sim, double loop_seconds, bigint nsteps,
                 const TimerSet& run, const NeighSummary& neigh = {},
                 const BalanceSummary& balance = {}) const;

  const std::vector<ThermoRow>& rows() const { return rows_; }
  void clear() { rows_.clear(); }

 private:
  std::vector<ThermoRow> rows_;
};

}  // namespace mlk
