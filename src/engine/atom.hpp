// Atom store — per-atom arrays held as kk::DualViews (the
// AtomVecAtomicKokkos of paper Fig. 1). Legacy, non-Kokkos styles access the
// same data through raw pointers aliased to the host views; Kokkos styles
// access whichever space they run in after calling sync with their datamask.
#pragma once

#include <cstdint>
#include <vector>

#include "kokkos/dualview.hpp"
#include "util/types.hpp"

namespace mlk {

// Per-field datamask bits (paper §3.2): each style declares which fields it
// reads (sync) and writes (modified) so DualView transfers happen only when
// a field is stale in the space about to touch it.
enum DataMask : unsigned {
  X_MASK = 1u << 0,
  V_MASK = 1u << 1,
  F_MASK = 1u << 2,
  TYPE_MASK = 1u << 3,
  TAG_MASK = 1u << 4,
  Q_MASK = 1u << 5,
  ENERGY_MASK = 1u << 6,
  VIRIAL_MASK = 1u << 7,
  ALL_MASK = 0xffffffffu,
};

class Atom {
 public:
  Atom();

  // Counts. nlocal = owned, nghost = halo copies; nall() = both.
  localint nlocal = 0;
  localint nghost = 0;
  bigint natoms = 0;  // global count across all ranks (bigint: App. B)
  int ntypes = 1;

  localint nall() const { return nlocal + nghost; }
  localint nmax() const { return nmax_; }

  // Per-atom fields (extent nmax x ...).
  kk::DualView<double, 2> k_x;   // positions
  kk::DualView<double, 2> k_v;   // velocities
  kk::DualView<double, 2> k_f;   // forces
  kk::DualView<int, 1> k_type;   // 1-based atom type
  kk::DualView<tagint, 1> k_tag; // global IDs
  kk::DualView<double, 1> k_q;   // charges (ReaxFF / QEq)

  // Per-type mass, index 1..ntypes (slot 0 unused, LAMMPS convention).
  kk::DualView<double, 1> k_mass;

  /// Ensure capacity for at least n atoms (amortized growth). Preserves
  /// contents and sync state of every field.
  void grow(localint n);

  void set_ntypes(int ntypes);
  void set_mass(int type, double mass);
  double mass_of_type(int type) const { return k_mass.h_view(std::size_t(type)); }

  /// Append an owned atom (host-side); marks host modified.
  localint add_atom(int type, tagint tag, double x, double y, double z);

  /// Declare modification/synchronize helper over a datamask, host side.
  template <class Space>
  void sync(unsigned mask);
  template <class Space>
  void modified(unsigned mask);

  /// Drop all ghosts (before re-communicating borders).
  void clear_ghosts() { nghost = 0; }

  /// Apply a permutation to the owned rows of every per-atom field:
  /// new row i takes old row perm[i] for x/v/f/type/tag/q. `perm` must be a
  /// bijection over [0, nlocal) and ghosts must be cleared (the spatial sort
  /// runs between exchange and borders, where nghost == 0). All fields are
  /// synced to host first and marked host-modified after, so both spaces
  /// stay coherent through the DualView flags.
  void reorder_owned(const std::vector<localint>& perm);

  /// Zero the force array over nall in the given space and mark modified.
  template <class Space>
  void zero_forces();

 private:
  localint nmax_ = 0;
};

template <class Space>
void Atom::sync(unsigned mask) {
  if (mask & X_MASK) k_x.sync<Space>();
  if (mask & V_MASK) k_v.sync<Space>();
  if (mask & F_MASK) k_f.sync<Space>();
  if (mask & TYPE_MASK) k_type.sync<Space>();
  if (mask & TAG_MASK) k_tag.sync<Space>();
  if (mask & Q_MASK) k_q.sync<Space>();
}

template <class Space>
void Atom::modified(unsigned mask) {
  if (mask & X_MASK) k_x.modify<Space>();
  if (mask & V_MASK) k_v.modify<Space>();
  if (mask & F_MASK) k_f.modify<Space>();
  if (mask & TYPE_MASK) k_type.modify<Space>();
  if (mask & TAG_MASK) k_tag.modify<Space>();
  if (mask & Q_MASK) k_q.modify<Space>();
}

}  // namespace mlk
