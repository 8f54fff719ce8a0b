// Binned Verlet neighbor lists (paper §4.1).
//
// Two list styles exist exactly as in LAMMPS-KOKKOS:
//  * half — each pair appears once; with newton on, owned-ghost pairs are
//    assigned by a coordinate criterion and ghost forces fold back via
//    reverse communication; with newton off, every rank keeps its own side
//    of owned-ghost pairs (duplicate compute, no force communication).
//  * full — every atom lists all neighbors; forces are computed redundantly
//    for both partners but no write conflicts or reverse comm occur.
//
// One builder (docs/NEIGHBOR.md): a single-pass resize-and-retry fill,
// templated on the execution space and run in the space of the pair style
// that reads the list, so the table is written where it is consumed. The
// PairAcceptance functor below is shared with the brute-force reference
// builder, so the half-list tie-break is defined in exactly one place.
//
// Storage is the 2-D neighbor table of Appendix B: a (natoms x maxneighs)
// DualView plus a per-atom count, so no flattened index can overflow 32 bits.
#pragma once

#include <cstddef>
#include <vector>

#include "engine/atom.hpp"
#include "engine/domain.hpp"
#include "kokkos/dualview.hpp"

namespace mlk {

enum class NeighStyle { Half, Full };

/// Execution space of a style's kernels: Host for plain styles and /kk/host
/// variants, Device for /kk styles. The neighbor list is built in the space
/// of the pair style that reads it.
enum class ExecSpaceKind { Host, Device };

/// The pair-acceptance rule, shared verbatim by the binned build (in either
/// space) and the brute-force reference builder so the half-list tie-break
/// is defined in exactly one place and the builders can never silently
/// diverge. Templated on the x view so it inlines into both host
/// (LayoutRight) and device (LayoutLeft) kernels.
struct PairAcceptance {
  localint nlocal = 0;
  bool full = true;
  bool newton = false;

  PairAcceptance() = default;
  PairAcceptance(localint nl, NeighStyle style, bool nw)
      : nlocal(nl), full(style == NeighStyle::Full), newton(nw) {}

  template <class XView>
  inline bool operator()(const XView& x, localint i, localint j) const {
    if (full) return j != i;
    if (j < nlocal) return j > i;
    // Owned-ghost pair of a half list. With newton off both ranks keep their
    // side; with newton on exactly one rank owns the pair: the one whose
    // ghost partner is "above" it in z, then y, then x (LAMMPS's standard
    // tie-break).
    if (!newton) return true;
    const double zi = x(std::size_t(i), 2), zj = x(std::size_t(j), 2);
    if (zj < zi) return false;
    if (zj > zi) return true;
    const double yi = x(std::size_t(i), 1), yj = x(std::size_t(j), 1);
    if (yj < yi) return false;
    if (yj > yi) return true;
    return x(std::size_t(j), 0) >= x(std::size_t(i), 0);
  }
};

struct NeighborList {
  NeighStyle style = NeighStyle::Full;
  bool newton = false;
  localint inum = 0;  // number of owned atoms with rows (== nlocal)
  localint gnum = 0;  // ghost atoms with rows (bonded styles, see ghost_rows)
  int maxneighs = 0;
  kk::DualView<int, 2> k_neighbors;  // (inum+gnum, maxneighs) neighbor indices
  kk::DualView<int, 1> k_numneigh;   // (inum+gnum)

  // Interior/boundary partition of the owned rows, the basis for the
  // comm/compute-overlapped force phase (docs/EXECUTION_MODEL.md): an owned
  // atom is *interior* when every neighbor index is < nlocal, i.e. its force
  // row is independent of ghost positions and can be computed before (or
  // while) the halo exchange updates ghosts. All remaining owned atoms are
  // *boundary*. ninterior + nboundary == inum always — every build
  // populates the partition (tier-1 enforced).
  kk::DualView<int, 1> k_interior;  // (ninterior) owned rows, ghost-free
  kk::DualView<int, 1> k_boundary;  // (nboundary) owned rows touching ghosts
  localint ninterior = 0;
  localint nboundary = 0;

  /// Total number of stored pairs (bigint: can exceed 2^31 at scale).
  /// Syncs the counts to host first (a Device build writes device-side).
  bigint total_pairs() const;
  double avg_neighbors() const;
};

/// Uniform cell binning over the extended (sub-box + ghost margin) region.
struct BinGrid {
  double lo[3], hi[3];
  int nbin[3] = {1, 1, 1};
  double binsize[3] = {1, 1, 1};
  std::vector<std::vector<int>> bins;  // atom indices per cell

  int coord_to_bin(const double* x) const;
  void build(const Atom& atom, const Domain& domain, double cutghost);
  int index(int bx, int by, int bz) const {
    return (bx * nbin[1] + by) * nbin[2] + bz;
  }
};

class Neighbor {
 public:
  double cutoff = 0.0;  // force cutoff (max over pair styles)
  double skin = 0.3;
  NeighStyle style = NeighStyle::Full;
  bool newton = false;
  int every = 1;      // consider rebuild every N steps since last build
  int delay = 0;      // never rebuild before N steps since last build
  bool check = true;  // only rebuild if an atom moved > skin/2

  /// Space the list is built in: Simulation::setup copies the pair style's
  /// execution_space, so a /kk style's list never crosses host<->device.
  /// Both spaces produce bitwise-identical rows (docs/NEIGHBOR.md).
  ExecSpaceKind execution_space = ExecSpaceKind::Host;

  /// Also build rows for ghost atoms (full style only). Needed by bonded
  /// potentials (ReaxFF torsions walk bonds of bonded ghosts). Rows of
  /// ghosts deeper than cutghost - bond cutoff from the sub-box may be
  /// incomplete; callers must only consume rows within that margin.
  bool ghost_rows = false;

  /// Canonical row ordering (`neigh_modify canonical yes`,
  /// docs/DECOMPOSITION.md): after every build, sort each row's entries by
  /// the neighbor's global tag (position as the tie-break between periodic
  /// images of the same tag), in `execution_space`. Row *contents* are unchanged — only the
  /// traversal order becomes independent of atom storage order, which makes
  /// per-row force accumulation (full list, newton off) bitwise invariant
  /// under spatial sorting, migration, and rebalancing. Off by default: the
  /// storage order the builders produce is itself deterministic and is the
  /// historical bitwise reference.
  bool canonical = false;

  double cutghost() const { return cutoff + skin; }

  /// (Re)build the list for the current atom/ghost configuration in
  /// `execution_space`. On return the list's views in that space are
  /// current and marked modified; consumers in the other space sync.
  void build(const Atom& atom, const Domain& domain);

  /// Rebuild decision for `step` (LAMMPS Neighbor::decide): a rebuild is
  /// considered only when at least `delay` steps passed since the last build
  /// and the steps-since-build count is a multiple of `every`; with `check`
  /// it additionally requires an atom to have moved > skin/2. Pure decision
  /// — call note_dangerous() once the (globally agreed) rebuild happens.
  bool wants_rebuild(bigint step, Atom& atom) const;

  /// Count a dangerous build: the distance check triggered on the *first*
  /// step `every`/`delay` permitted a rebuild, meaning atoms were likely
  /// past skin/2 while the stale list was still in use (LAMMPS heuristic).
  /// Call on every rank with the global rebuild decision so counts agree.
  void note_dangerous(bigint step);

  /// True if any owned atom moved more than skin/2 since the last build: a
  /// max-reduction over the current positions, run in `execution_space`
  /// (x is synced there first, so a Device integrator's moves count).
  bool check_distance(Atom& atom) const;

  /// Record positions at build time (basis for check_distance), in
  /// `execution_space`. With `check` off nothing reads them: the copy is
  /// skipped and the basis dropped.
  void store_build_positions(Atom& atom);

  NeighborList list;
  bigint nbuilds = 0;
  bigint ndanger = 0;       // dangerous builds (see note_dangerous)
  bigint last_build = 0;    // timestep of the last build

  /// Row-capacity high-water mark carried across rebuilds (0 = derive the
  /// first guess from the local density). Reset to re-measure cold builds.
  int maxneighs_hint = 0;

  /// Overflow passes across all resize-and-retry builds. After warm-up the
  /// high-water mark makes further builds retry-free (bench_neigh_rebuild).
  bigint nretries = 0;

 private:
  template <class Space>
  void build_in(const Atom& atom, const Domain& domain);
  void canonicalize_rows(const Atom& atom);
  template <class Space>
  void canonicalize_rows_in(const Atom& atom);
  template <class Space>
  bool check_distance_in(Atom& atom) const;
  template <class Space>
  void store_build_positions_in(Atom& atom);

  // Positions at the last build, (nlocal x 3). Only the copy in
  // execution_space is written and read; it is never synced.
  kk::DualView<double, 2> xhold_;
};

/// Reference O(N^2) list builder used by tests to validate the binned
/// build. With `ghost_rows` it also fills rows for ghost atoms and sets
/// gnum, mirroring the binned build.
NeighborList brute_force_list(const Atom& atom, const Domain& domain,
                              double cutoff, NeighStyle style, bool newton,
                              localint nlocal, bool ghost_rows = false);

}  // namespace mlk
