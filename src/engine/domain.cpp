#include "engine/domain.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mlk {

void Domain::set_box(double xlo, double xhi, double ylo, double yhi,
                     double zlo, double zhi) {
  require(xhi > xlo && yhi > ylo && zhi > zlo, "box bounds must be ordered");
  boxlo[0] = xlo;
  boxlo[1] = ylo;
  boxlo[2] = zlo;
  boxhi[0] = xhi;
  boxhi[1] = yhi;
  boxhi[2] = zhi;
  for (int d = 0; d < 3; ++d) {
    sublo[d] = boxlo[d];
    subhi[d] = boxhi[d];
    cuts_[std::size_t(d)] = {boxlo[d], boxhi[d]};
  }
}

void Domain::decompose(int rank, int nranks) {
  grid_ = make_grid(rank, nranks, prd(0), prd(1), prd(2));
  for (int d = 0; d < 3; ++d) {
    subbox_bounds(grid_, d, boxlo[d], boxhi[d], &sublo[d], &subhi[d]);
    cuts_[std::size_t(d)] = uniform_cuts(grid_.np[d], boxlo[d], boxhi[d]);
  }
}

void Domain::set_cuts(int d, std::vector<double> cuts) {
  require(d >= 0 && d < 3, "set_cuts: bad dimension");
  require(cuts.size() == std::size_t(grid_.np[d]) + 1,
          "set_cuts: need np+1 cut planes");
  require(cuts.front() == boxlo[d] && cuts.back() == boxhi[d],
          "set_cuts: cuts must span the global box");
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
    require(cuts[i] < cuts[i + 1], "set_cuts: cuts must be ascending");
  cuts_[std::size_t(d)] = std::move(cuts);
  sublo[d] = cuts_[std::size_t(d)][std::size_t(grid_.coord[d])];
  subhi[d] = cuts_[std::size_t(d)][std::size_t(grid_.coord[d]) + 1];
}

void Domain::remap(double* x) const {
  for (int d = 0; d < 3; ++d) {
    if (!periodic[d]) continue;
    require(std::isfinite(x[d]),
            "remap: non-finite coordinate (simulation blew up?)");
    const double p = prd(d);
    while (x[d] >= boxhi[d]) x[d] -= p;
    while (x[d] < boxlo[d]) x[d] += p;
  }
}

bool Domain::inside_subbox(const double* x) const {
  for (int d = 0; d < 3; ++d)
    if (x[d] < sublo[d] || x[d] >= subhi[d]) return false;
  return true;
}

}  // namespace mlk
