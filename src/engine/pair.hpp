// Pair style base class (the "pair style" category of §2.2).
//
// Concrete potentials (LJ, EAM, ReaxFF-lite, SNAP) override compute();
// Kokkos-accelerated variants additionally set execution_space. Each
// compute() syncs the fields it reads to its space by datamask and marks
// the ones it writes modified — the flag mechanism of §3.2.
#pragma once

#include <string>
#include <vector>

#include "engine/atom.hpp"
#include "engine/neighbor.hpp"
#include "io/binary_io.hpp"
#include "util/error.hpp"

namespace kk {
class DeviceInstance;
}

namespace mlk {

class Simulation;

class Pair {
 public:
  virtual ~Pair() = default;

  /// Style-specific global settings (pair_style command args).
  virtual void settings(const std::vector<std::string>& args) { (void)args; }

  /// Per-type-pair coefficients (pair_coeff command args). The engine sets
  /// ntypes_hint from the atom store before calling, so wildcard ("*")
  /// specifications know the full type range.
  virtual void coeff(const std::vector<std::string>& args) { (void)args; }

  int ntypes_hint = 1;

  /// One-time initialization once box/types are known.
  virtual void init(Simulation& sim) { (void)sim; }

  /// Compute forces into atom.f; accumulate energy/virial when eflag.
  virtual void compute(Simulation& sim, bool eflag) = 0;

  // --- comm/compute overlap (docs/EXECUTION_MODEL.md) ---
  /// A style that can split its force kernel into ghost-independent
  /// *interior* rows and ghost-touching *boundary* rows returns true when
  /// the given list supports the split; the engine then calls
  /// compute_interior (asynchronously, before the halo exchange) followed by
  /// compute_boundary (after ghosts land) instead of compute().
  virtual bool supports_overlap(const NeighborList& list) const {
    (void)list;
    return false;
  }

  /// Launch the interior force pass on `instance` and return immediately.
  /// All DualView sync/modify bookkeeping must happen on the calling thread;
  /// the enqueued task may touch only raw captured views. Only called when
  /// supports_overlap() returned true.
  virtual void compute_interior(Simulation& sim, bool eflag,
                                kk::DeviceInstance& instance) {
    (void)sim, (void)eflag, (void)instance;
    require(false, style_name + " does not support overlapped compute");
  }

  /// Complete the force computation over boundary rows and fold the interior
  /// tallies into eng_vdwl/virial. Called only after the halo exchange
  /// finished AND the interior instance was fenced.
  virtual void compute_boundary(Simulation& sim, bool eflag) {
    (void)sim, (void)eflag;
    require(false, style_name + " does not support overlapped compute");
  }

  /// Serialize settings + coefficients into a checkpoint; return true if the
  /// style fully round-trips (a read_restart then needs no pair_style /
  /// pair_coeff commands). Styles whose coefficients live in external tables
  /// (EAM, SNAP) keep the default false and are re-specified on resume.
  virtual bool pack_restart(io::BinaryWriter& w) const {
    (void)w;
    return false;
  }
  virtual void unpack_restart(io::BinaryReader& r) { (void)r; }

  /// Largest interaction cutoff (drives the neighbor list).
  virtual double cutoff() const = 0;

  /// Which neighbor list the style wants.
  virtual NeighStyle neigh_style() const { return NeighStyle::Half; }

  /// Half-list styles say whether they exploit Newton's third law for ghost
  /// pairs (requiring reverse force communication).
  virtual bool newton() const { return true; }

  /// Bonded styles that walk neighbor rows of ghost atoms (ReaxFF torsions).
  virtual bool ghost_rows_needed() const { return false; }

  /// Execution space of the compute kernels (Host for legacy styles).
  ExecSpaceKind execution_space = ExecSpaceKind::Host;

  /// True for styles that accumulate forces onto ghost atoms even with a
  /// full neighbor list (SNAP, ReaxFF bonded terms): the engine must fold
  /// ghost forces back to owners after compute().
  bool needs_reverse_comm = false;

  // Accumulated per-call results (this rank's share).
  double eng_vdwl = 0.0;
  double eng_coul = 0.0;
  double virial[6] = {0, 0, 0, 0, 0, 0};

  std::string style_name;

 protected:
  void reset_accumulators() {
    eng_vdwl = eng_coul = 0.0;
    for (double& v : virial) v = 0.0;
  }
};

}  // namespace mlk
