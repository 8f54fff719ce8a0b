// Spatial reorder of owned atoms (ExaMiniMD's "Kokkos Sort Binning"
// capability, docs/DECOMPOSITION.md): every `every` neighbor rebuilds the
// owned rows are permuted into bin-major order over a uniform grid of the
// sub-box, restoring the cache locality that particle diffusion destroys.
//
// Two permutation builders exist:
//  * Scalar — std::stable_sort by bin key; the bitwise reference the tests
//    compare Binned against.
//  * Binned — bin-count + exclusive-scan + ordered fill (the counting-sort
//    shape a device backend would use); maybe_sort always uses it.
// Both are stable by prior index within a bin, so they produce the *same*
// permutation (tier-1 enforced).
#pragma once

#include <vector>

#include "engine/atom.hpp"
#include "engine/domain.hpp"
#include "util/types.hpp"

namespace mlk {

class AtomSorter {
 public:
  /// Sort cadence in neighbor rebuilds (`sort every <N>`; 0 = off).
  int every = 0;

  bigint nsorts = 0;
  /// Rebuilds since the last sort — checkpointed (restart format v2) so a
  /// resumed run sorts on exactly the same rebuilds as the writer.
  int builds_since_sort = 0;

  /// Called once per neighbor rebuild, after exchange and before borders
  /// (nghost == 0). Counts the rebuild and applies the sort when the
  /// cadence comes due; returns true when a sort happened.
  bool maybe_sort(Atom& atom, const Domain& domain, double bin_width);

  /// Bin-major spatial permutation of the owned rows (new index -> old
  /// index), stable by old index within a bin.
  static std::vector<localint> permutation_scalar(const Atom& atom,
                                                  const Domain& domain,
                                                  double bin_width);
  static std::vector<localint> permutation_binned(const Atom& atom,
                                                  const Domain& domain,
                                                  double bin_width);
};

}  // namespace mlk
