// Simulation domain: orthogonal periodic box plus this rank's sub-box.
//
// The sub-box is one cell of a rectilinear grid: per-dimension cut planes
// shared by all ranks (uniform after decompose(); possibly non-uniform after
// `balance rcb` installs recursive-bisection cuts via set_cuts()). Keeping
// the cuts rectilinear preserves the brick 6-swap communication pattern.
#pragma once

#include <vector>

#include "comm/decomposition.hpp"
#include "util/types.hpp"

namespace mlk {

class Domain {
 public:
  // Global box bounds.
  double boxlo[3] = {0, 0, 0};
  double boxhi[3] = {1, 1, 1};
  // This rank's sub-box (equals the global box in serial runs).
  double sublo[3] = {0, 0, 0};
  double subhi[3] = {1, 1, 1};
  bool periodic[3] = {true, true, true};

  void set_box(double xlo, double xhi, double ylo, double yhi, double zlo,
               double zhi);

  /// Partition the box for `rank` of `nranks`; fills sublo/subhi and grid.
  /// Resets the cut planes to uniform.
  void decompose(int rank, int nranks);

  /// Install non-uniform cut planes along dimension d (np[d]+1 ascending
  /// values spanning [boxlo[d], boxhi[d]]) and re-derive sublo/subhi from
  /// this rank's grid coordinate. Every rank must install identical cuts.
  void set_cuts(int d, std::vector<double> cuts);

  /// Cut planes along dimension d: np[d]+1 ascending values. Before any
  /// decompose() this is the trivial {boxlo, boxhi} partition.
  const std::vector<double>& cuts(int d) const {
    return cuts_[std::size_t(d)];
  }

  double prd(int d) const { return boxhi[d] - boxlo[d]; }
  double volume() const { return prd(0) * prd(1) * prd(2); }

  /// Remap a position into the primary box (periodic wrap).
  void remap(double* x) const;

  /// True if position is inside this rank's sub-box ([lo, hi) convention).
  bool inside_subbox(const double* x) const;

  const ProcGrid& grid() const { return grid_; }

 private:
  ProcGrid grid_;
  std::vector<double> cuts_[3] = {{0, 1}, {0, 1}, {0, 1}};
};

}  // namespace mlk
