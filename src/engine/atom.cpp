#include "engine/atom.hpp"

#include <algorithm>

#include "kokkos/core.hpp"
#include "util/error.hpp"

namespace mlk {

Atom::Atom()
    : k_x("atom::x", 0, 3),
      k_v("atom::v", 0, 3),
      k_f("atom::f", 0, 3),
      k_type("atom::type", 0),
      k_tag("atom::tag", 0),
      k_q("atom::q", 0),
      k_mass("atom::mass", 2) {}

void Atom::grow(localint n) {
  if (n <= nmax_) return;
  const localint newmax = std::max(n, nmax_ + nmax_ / 2 + 1024);
  k_x.resize_preserve(std::size_t(newmax));
  k_v.resize_preserve(std::size_t(newmax));
  k_f.resize_preserve(std::size_t(newmax));
  k_type.resize_preserve(std::size_t(newmax));
  k_tag.resize_preserve(std::size_t(newmax));
  k_q.resize_preserve(std::size_t(newmax));
  nmax_ = newmax;
}

void Atom::set_ntypes(int n) {
  require(n >= 1, "ntypes must be >= 1");
  ntypes = n;
  k_mass.realloc(std::size_t(n) + 1);
  for (std::size_t t = 0; t <= std::size_t(n); ++t) k_mass.h_view(t) = 1.0;
  k_mass.modify<kk::Host>();
}

void Atom::set_mass(int type, double mass) {
  require(type >= 1 && type <= ntypes, "set_mass: type out of range");
  require(mass > 0.0, "set_mass: mass must be positive");
  k_mass.h_view(std::size_t(type)) = mass;
  k_mass.modify<kk::Host>();
  k_mass.sync<kk::Device>();
}

localint Atom::add_atom(int type, tagint tag, double x, double y, double z) {
  require(type >= 1 && type <= ntypes, "add_atom: type out of range");
  grow(nlocal + nghost + 1);
  // Ghosts (if any) live at the tail; callers add owned atoms before borders.
  require(nghost == 0, "add_atom: cannot add owned atoms while ghosts exist");
  const localint i = nlocal++;
  k_x.h_view(std::size_t(i), 0) = x;
  k_x.h_view(std::size_t(i), 1) = y;
  k_x.h_view(std::size_t(i), 2) = z;
  for (int d = 0; d < 3; ++d) {
    k_v.h_view(std::size_t(i), std::size_t(d)) = 0.0;
    k_f.h_view(std::size_t(i), std::size_t(d)) = 0.0;
  }
  k_type.h_view(std::size_t(i)) = type;
  k_tag.h_view(std::size_t(i)) = tag;
  k_q.h_view(std::size_t(i)) = 0.0;
  modified<kk::Host>(X_MASK | V_MASK | F_MASK | TYPE_MASK | TAG_MASK | Q_MASK);
  return i;
}

template <class Space>
void Atom::zero_forces() {
  sync<Space>(F_MASK);
  auto f = k_f.view<Space>();
  const std::size_t n = std::size_t(nall());
  kk::parallel_for("Atom::zero_forces", kk::RangePolicy<Space>(0, n),
                   [=](std::size_t i) {
                     f(i, 0) = 0.0;
                     f(i, 1) = 0.0;
                     f(i, 2) = 0.0;
                   });
  modified<Space>(F_MASK);
}

template void Atom::zero_forces<kk::Host>();
template void Atom::zero_forces<kk::Device>();

void Atom::reorder_owned(const std::vector<localint>& perm) {
  require(nghost == 0, "reorder_owned: clear ghosts before sorting");
  require(perm.size() == std::size_t(nlocal),
          "reorder_owned: permutation size mismatch");
  const std::size_t n = perm.size();
  sync<kk::Host>(X_MASK | V_MASK | F_MASK | TYPE_MASK | TAG_MASK | Q_MASK);
  auto x = k_x.h_view;
  auto v = k_v.h_view;
  auto f = k_f.h_view;
  auto type = k_type.h_view;
  auto tag = k_tag.h_view;
  auto q = k_q.h_view;

  std::vector<double> dtmp(3 * n);
  auto gather3 = [&](auto view) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t d = 0; d < 3; ++d)
        dtmp[3 * i + d] = view(std::size_t(perm[i]), d);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t d = 0; d < 3; ++d) view(i, d) = dtmp[3 * i + d];
  };
  gather3(x);
  gather3(v);
  gather3(f);

  std::vector<int> itmp(n);
  for (std::size_t i = 0; i < n; ++i) itmp[i] = type(std::size_t(perm[i]));
  for (std::size_t i = 0; i < n; ++i) type(i) = itmp[i];
  std::vector<tagint> ttmp(n);
  for (std::size_t i = 0; i < n; ++i) ttmp[i] = tag(std::size_t(perm[i]));
  for (std::size_t i = 0; i < n; ++i) tag(i) = ttmp[i];
  for (std::size_t i = 0; i < n; ++i) dtmp[i] = q(std::size_t(perm[i]));
  for (std::size_t i = 0; i < n; ++i) q(i) = dtmp[i];

  modified<kk::Host>(X_MASK | V_MASK | F_MASK | TYPE_MASK | TAG_MASK | Q_MASK);
}

}  // namespace mlk
