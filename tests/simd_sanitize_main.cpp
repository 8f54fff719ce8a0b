// Standalone sanitizer exercise for the header-only kk::simd pack layer
// (ctest `simd_sanitize`, run_tier1.sh --simd). Compiled by
// simd_sanitize.sh with -fsanitize=address,undefined directly against
// src/kokkos/simd.hpp — no gtest, no engine — so gathers, loads and
// stores, first()-masked remainder chunks, select() and the where() blends
// run under both sanitizers with every lane checked. Exits nonzero on any
// mismatch; the sanitizers themselves abort on OOB reads or UB.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "kokkos/simd.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "simd_sanitize: FAIL %s\n", what);
    ++failures;
  }
}

template <int W>
void exercise_width() {
  using pd = kk::simd<double, W>;
  using pm = kk::simd_mask<W>;

  // Arithmetic + comparisons + select + sqrt on every lane.
  const pd a = pd::gather([](int l) { return double(l + 1); }), b = pd(2.0);
  const pd c = (a * b + a) / b - pd(0.5);
  for (int l = 0; l < W; ++l) {
    const double s = double(l + 1);
    check(c[l] == (s * 2.0 + s) / 2.0 - 0.5, "arith lane");
  }
  const pm lt = !(a >= pd(double(W)));
  for (int l = 0; l < W; ++l) check(lt[l] == (l < W - 1), "compare lane");
  check(kk::select(lt, a, -a)[W - 1] == -double(W), "select blend");
  check(kk::sqrt(a * a)[W - 1] == double(W), "sqrt lane");

  // Exactly-sized heap buffer: any lane that reads past n trips ASan.
  const int n = 3 * W + (W > 1 ? W - 1 : 0);  // deliberately ragged
  std::vector<double> buf(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) buf[std::size_t(i)] = 0.25 * i;

  double sum_scalar = 0.0;
  for (int i = 0; i < n; ++i) sum_scalar += buf[std::size_t(i)] * 2.0;

  pd acc;
  const int nfull = n & ~(W - 1);
  for (int i = 0; i < nfull; i += W) acc += pd::load(buf.data() + i) * 2.0;
  const int rem = n - nfull;
  if (rem > 0) {
    // The kernels' remainder: first(rem) masks the lanes past the end, and
    // their gather sources are padded with a valid index, so no lane reads
    // past n.
    const pm tail = pm::first(rem);
    const pd t = pd::gather(
        [&](int l) { return buf[std::size_t(nfull + (tail[l] ? l : 0))]; });
    kk::where(tail, acc) += t * 2.0;
  }
  const double sum_packed = kk::reduce_sum(acc);
  check(std::abs(sum_packed - sum_scalar) <=
            1e-12 * (std::abs(sum_scalar) + 1.0),
        "remainder sum");

  // Store into an exactly-sized buffer.
  std::vector<double> out(static_cast<std::size_t>(W));
  acc.store(out.data());
  for (int l = 0; l < W; ++l)
    check(out[std::size_t(l)] == acc[l], "store lane");

  // All-false mask: where() leaves every lane as it was, even when the
  // contribution is a NaN.
  const pm none(false);
  check(none.none() && (lt && none).none(), "none mask");
  pd kept(1.5);
  kk::where(none, kept) += pd(std::nan(""));
  for (int l = 0; l < W; ++l) check(kept[l] == 1.5, "all-false where");
}

}  // namespace

int main() {
  exercise_width<1>();
  exercise_width<2>();
  exercise_width<4>();
  exercise_width<kk::native_simd_width>();
  if (failures == 0) std::printf("simd_sanitize: OK\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
