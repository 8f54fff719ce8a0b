// kk::simd — the explicit SIMD vector backend of minikokkos
// (docs/VECTORIZATION.md).
//
// A fixed-width pack type `kk::simd<T, W>` with where()-masking, gathers,
// and ordered horizontal reductions, plus the runtime `MLK_SIMD` toggle and
// the per-kernel vectorized-launch counters surfaced in bench metrics.
//
// The pack is the single source of vector semantics for the whole engine:
// kernels written against it instantiate at the native width (AVX-512: 8
// doubles, otherwise 4) when SIMD is on, and at W == 1 — where every pack
// op degrades to exactly one scalar op in the same order — when it is off.
// The W == 1 instantiation therefore *is* the scalar reference path, which
// is what makes the per-kernel equivalence policy of VECTORIZATION.md
// checkable. SNAP's lane kernels ignore the toggle and always run at the
// native width: each lane replays the scalar operation sequence.
//
// Arithmetic lowers through GNU vector extensions (guaranteed SIMD codegen
// at any optimization level); lane-structured operations (gather, select,
// masks, reductions) are fixed-trip-count lane loops the compiler unrolls
// and blends. A plain-array fallback keeps non-GNU compilers building.
//
// Floating-point semantics: every lane op is plain IEEE double/float math,
// identical to the scalar expression; only *horizontal* reductions impose
// an order (lane 0..W-1, lowest first), so any reassociation relative to a
// scalar loop comes from the accumulation pattern of the calling kernel,
// never from the pack layer itself.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#if defined(__GNUC__) || defined(__clang__)
#define MLK_SIMD_VECTOR_EXT 1
#endif

namespace kk {

/// Native pack width for double precision on this build's target ISA.
#if defined(__AVX512F__)
inline constexpr int native_simd_width = 8;
#else
inline constexpr int native_simd_width = 4;
#endif

// ---------------------------------------------------------------------------
// Runtime toggle: MLK_SIMD=on|1 enables the vectorized kernel paths;
// default (unset/off/0) keeps the scalar reference path. The input-script
// command `simd on|off` calls set_simd_enabled.
// ---------------------------------------------------------------------------

namespace simd_detail {
inline std::atomic<int>& enabled_flag() {
  static std::atomic<int> f{-1};  // -1: not yet read from the environment
  return f;
}

#if defined(MLK_SIMD_VECTOR_EXT)
/// Dependent-context factory for GNU vector types: the element type being a
/// template parameter keeps the vector_size attribute deferred until
/// instantiation (a bare `long long __attribute__((vector_size(W * 8)))`
/// inside a class template silently drops the attribute).
template <class T, int W>
struct vec_storage {
  typedef T type __attribute__((vector_size(W * sizeof(T))));
};
#endif
}  // namespace simd_detail

inline bool simd_enabled() {
  int v = simd_detail::enabled_flag().load(std::memory_order_relaxed);
  if (v < 0) {
    bool on = false;
    if (const char* e = std::getenv("MLK_SIMD")) {
      const std::string s(e);
      on = !(s.empty() || s == "0" || s == "off" || s == "OFF");
    }
    v = on ? 1 : 0;
    simd_detail::enabled_flag().store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

inline void set_simd_enabled(bool on) {
  simd_detail::enabled_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// simd_mask<W> — per-lane boolean, the value type of where() and of pack
// comparisons. Stored as a 64-bit-lane integer vector (all-ones = true) so
// that pack comparisons assign their result directly and select() lowers to
// bitwise blends — the branchless masking that makes the pair kernels fast.
// ---------------------------------------------------------------------------

template <int W>
class simd_mask {
  static_assert(W >= 1);

 public:
  static constexpr int width = W;

#if defined(MLK_SIMD_VECTOR_EXT)
  using storage = typename simd_detail::vec_storage<long long, W>::type;
#else
  struct storage {
    long long e[W];
    long long operator[](int l) const { return e[l]; }
    long long& operator[](int l) { return e[l]; }
  };
#endif

  simd_mask() : m_{} {}  // all lanes false
  explicit simd_mask(bool v) {
    const long long s = v ? -1 : 0;
    for (int l = 0; l < W; ++l) m_[l] = s;
  }
  explicit simd_mask(const storage& s) : m_(s) {}

  /// Lanes [0, n) active — the remainder-loop mask.
  static simd_mask first(int n) {
    simd_mask m;
    for (int l = 0; l < W; ++l) m.m_[l] = l < n ? -1 : 0;
    return m;
  }

  bool operator[](int lane) const { return m_[lane] != 0; }
  void set(int lane, bool v) { m_[lane] = v ? -1 : 0; }

  /// Raw lane bits (all-ones/zero per lane) for bitwise blends.
  const storage& bits() const { return m_; }

  bool any() const {
    long long acc = 0;
    for (int l = 0; l < W; ++l) acc |= m_[l];
    return acc != 0;
  }
  bool all() const {
    long long acc = -1;
    for (int l = 0; l < W; ++l) acc &= m_[l];
    return acc != 0;
  }
  bool none() const { return !any(); }
  int count() const {
    int c = 0;
    for (int l = 0; l < W; ++l) c += m_[l] != 0 ? 1 : 0;
    return c;
  }

  friend simd_mask operator&&(const simd_mask& a, const simd_mask& b) {
    simd_mask m;
#if defined(MLK_SIMD_VECTOR_EXT)
    m.m_ = a.m_ & b.m_;
#else
    for (int l = 0; l < W; ++l) m.m_[l] = a.m_[l] & b.m_[l];
#endif
    return m;
  }
  friend simd_mask operator||(const simd_mask& a, const simd_mask& b) {
    simd_mask m;
#if defined(MLK_SIMD_VECTOR_EXT)
    m.m_ = a.m_ | b.m_;
#else
    for (int l = 0; l < W; ++l) m.m_[l] = a.m_[l] | b.m_[l];
#endif
    return m;
  }
  friend simd_mask operator!(const simd_mask& a) {
    simd_mask m;
#if defined(MLK_SIMD_VECTOR_EXT)
    m.m_ = ~a.m_;
#else
    for (int l = 0; l < W; ++l) m.m_[l] = ~a.m_[l];
#endif
    return m;
  }

 private:
  storage m_;
};

// ---------------------------------------------------------------------------
// simd<T, W> — the pack.
// ---------------------------------------------------------------------------

template <class T, int W>
class simd {
  static_assert(W >= 1 && (W & (W - 1)) == 0, "pack width must be 2^k");

 public:
  using value_type = T;
  static constexpr int width = W;

#if defined(MLK_SIMD_VECTOR_EXT)
  typedef T storage __attribute__((vector_size(W * sizeof(T))));
#else
  struct storage {
    T e[W];
    T operator[](int l) const { return e[l]; }
    T& operator[](int l) { return e[l]; }
  };
#endif

  simd() : v_{} {}  // all lanes zero
  explicit simd(T s) {
#if defined(MLK_SIMD_VECTOR_EXT)
    // Scalar-to-vector broadcast: one splat, copying s bit for bit (adding
    // s to a zero vector would turn -0.0 into +0.0).
    *this = splat(s, std::make_integer_sequence<int, W>{});
#else
    for (int l = 0; l < W; ++l) v_[l] = s;
#endif
  }
  explicit simd(const storage& s) : v_(s) {}

  /// Raw lane storage, for bitwise blends in select()/masked math.
  const storage& raw() const { return v_; }

  /// Unaligned load/store of W contiguous elements.
  static simd load(const T* p) {
    simd r;
    std::memcpy(&r.v_, p, W * sizeof(T));
    return r;
  }
  void store(T* p) const { std::memcpy(p, &v_, W * sizeof(T)); }

  /// Masked load: inactive lanes get `fill` (contiguous source, only the
  /// active prefix/lanes are dereferenced).
  static simd load_masked(const T* p, const simd_mask<W>& m, T fill = T(0)) {
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = m[l] ? p[l] : fill;
    return r;
  }

  /// Gather through a callable `fn(lane) -> T` for every lane (use when all
  /// lane sources are valid, e.g. padded index arrays). The lanes build a
  /// vector braced-init via pack expansion (left-to-right, so lane order is
  /// deterministic): the pack assembles in registers, avoiding the
  /// store-forwarding stalls of a stack-buffer round trip.
  template <class F>
  static simd gather(F&& fn) {
#if defined(MLK_SIMD_VECTOR_EXT)
    return gather_impl(fn, std::make_integer_sequence<int, W>{});
#else
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = fn(l);
    return r;
#endif
  }

  /// Masked gather: `fn` is invoked for active lanes only; inactive lanes
  /// get `fill`. The guarantee that masked-off sources are never
  /// dereferenced is what makes remainder loops safe.
  template <class F>
  static simd gather_masked(const simd_mask<W>& m, F&& fn, T fill = T(0)) {
#if defined(MLK_SIMD_VECTOR_EXT)
    return gather_masked_impl(m, fn, fill,
                              std::make_integer_sequence<int, W>{});
#else
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = m[l] ? fn(l) : fill;
    return r;
#endif
  }

  /// {base, base+step, base+2*step, ...} — lane index packs.
  static simd iota(T base, T step = T(1)) {
    return gather([&](int l) { return base + T(l) * step; });
  }

  T operator[](int lane) const { return v_[lane]; }
  void set_lane(int lane, T s) { v_[lane] = s; }

  // Arithmetic — vector-extension expressions, one SIMD op each (no
  // default-construct-then-assign: results are built from storage directly).
#if defined(MLK_SIMD_VECTOR_EXT)
  friend simd operator+(const simd& a, const simd& b) {
    return simd(storage(a.v_ + b.v_));
  }
  friend simd operator-(const simd& a, const simd& b) {
    return simd(storage(a.v_ - b.v_));
  }
  friend simd operator*(const simd& a, const simd& b) {
    return simd(storage(a.v_ * b.v_));
  }
  friend simd operator/(const simd& a, const simd& b) {
    return simd(storage(a.v_ / b.v_));
  }
  // Negation flips the sign bit, as scalar -x does: -(+0.0) is -0.0.
  friend simd operator-(const simd& a) { return simd(storage(-a.v_)); }
#else
  friend simd operator+(const simd& a, const simd& b) {
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = a.v_[l] + b.v_[l];
    return r;
  }
  friend simd operator-(const simd& a, const simd& b) {
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = a.v_[l] - b.v_[l];
    return r;
  }
  friend simd operator*(const simd& a, const simd& b) {
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = a.v_[l] * b.v_[l];
    return r;
  }
  friend simd operator/(const simd& a, const simd& b) {
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = a.v_[l] / b.v_[l];
    return r;
  }
  friend simd operator-(const simd& a) {
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = -a.v_[l];
    return r;
  }
#endif

  // Pack (x) scalar conveniences.
  friend simd operator+(const simd& a, T s) { return a + simd(s); }
  friend simd operator-(const simd& a, T s) { return a - simd(s); }
  friend simd operator*(const simd& a, T s) { return a * simd(s); }
  friend simd operator/(const simd& a, T s) { return a / simd(s); }
  friend simd operator+(T s, const simd& a) { return simd(s) + a; }
  friend simd operator-(T s, const simd& a) { return simd(s) - a; }
  friend simd operator*(T s, const simd& a) { return simd(s) * a; }
  friend simd operator/(T s, const simd& a) { return simd(s) / a; }

  simd& operator+=(const simd& o) { return *this = *this + o; }
  simd& operator-=(const simd& o) { return *this = *this - o; }
  simd& operator*=(const simd& o) { return *this = *this * o; }
  simd& operator/=(const simd& o) { return *this = *this / o; }

  // Comparisons — native vector compares producing all-ones/zero lane bits
  // assigned straight into the mask (one instruction on the hot path).
#if defined(MLK_SIMD_VECTOR_EXT)
 private:
  template <class VC>
  static simd_mask<W> mask_from(const VC& c) {
    using ms = typename simd_mask<W>::storage;
    if constexpr (std::is_same_v<VC, ms>) {
      return simd_mask<W>(c);
    } else {
      // Narrow-element T: widen the compare-result lanes to 64-bit.
      return simd_mask<W>(__builtin_convertvector(c, ms));
    }
  }

 public:
  friend simd_mask<W> operator<(const simd& a, const simd& b) {
    return mask_from(a.v_ < b.v_);
  }
  friend simd_mask<W> operator<=(const simd& a, const simd& b) {
    return mask_from(a.v_ <= b.v_);
  }
  friend simd_mask<W> operator>(const simd& a, const simd& b) {
    return mask_from(a.v_ > b.v_);
  }
  friend simd_mask<W> operator>=(const simd& a, const simd& b) {
    return mask_from(a.v_ >= b.v_);
  }
#else
  friend simd_mask<W> operator<(const simd& a, const simd& b) {
    simd_mask<W> m;
    for (int l = 0; l < W; ++l) m.set(l, a.v_[l] < b.v_[l]);
    return m;
  }
  friend simd_mask<W> operator<=(const simd& a, const simd& b) {
    simd_mask<W> m;
    for (int l = 0; l < W; ++l) m.set(l, a.v_[l] <= b.v_[l]);
    return m;
  }
  friend simd_mask<W> operator>(const simd& a, const simd& b) {
    simd_mask<W> m;
    for (int l = 0; l < W; ++l) m.set(l, a.v_[l] > b.v_[l]);
    return m;
  }
  friend simd_mask<W> operator>=(const simd& a, const simd& b) {
    simd_mask<W> m;
    for (int l = 0; l < W; ++l) m.set(l, a.v_[l] >= b.v_[l]);
    return m;
  }
#endif
  friend simd_mask<W> operator<(const simd& a, T s) { return a < simd(s); }
  friend simd_mask<W> operator>=(const simd& a, T s) { return a >= simd(s); }

 private:
#if defined(MLK_SIMD_VECTOR_EXT)
  template <int... Ls>
  static simd splat(T s, std::integer_sequence<int, Ls...>) {
    return simd(storage{((void)Ls, s)...});
  }
  template <class F, int... Ls>
  static simd gather_impl(F&& fn, std::integer_sequence<int, Ls...>) {
    return simd(storage{fn(Ls)...});
  }
  template <class F, int... Ls>
  static simd gather_masked_impl(const simd_mask<W>& m, F&& fn, T fill,
                                 std::integer_sequence<int, Ls...>) {
    return simd(storage{(m[Ls] ? fn(Ls) : fill)...});
  }
#endif

  storage v_;
};

// ---------------------------------------------------------------------------
// Free functions over packs.
// ---------------------------------------------------------------------------

/// Per-lane blend: m ? a : b. Branchless — lowers to bitwise and/andnot/or
/// (or native blend instructions) for 64-bit element types.
template <class T, int W>
inline simd<T, W> select(const simd_mask<W>& m, const simd<T, W>& a,
                         const simd<T, W>& b) {
#if defined(MLK_SIMD_VECTOR_EXT)
  if constexpr (sizeof(T) == sizeof(long long)) {
    using ms = typename simd_mask<W>::storage;
    using vs = typename simd<T, W>::storage;
    const ms bits = m.bits();
    const ms av = (ms)a.raw();
    const ms bv = (ms)b.raw();
    return simd<T, W>((vs)((av & bits) | (bv & ~bits)));
  } else {
    simd<T, W> r;
    for (int l = 0; l < W; ++l) r.set_lane(l, m[l] ? a[l] : b[l]);
    return r;
  }
#else
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.set_lane(l, m[l] ? a[l] : b[l]);
  return r;
#endif
}

template <class T, int W>
inline simd<T, W> select(const simd_mask<W>& m, const simd<T, W>& a, T b) {
  return select(m, a, simd<T, W>(b));
}

/// Ordered horizontal sum, lane 0 first — the one place the pack layer
/// fixes an FP association order.
template <class T, int W>
inline T reduce_sum(const simd<T, W>& a) {
  T s = a[0];
  for (int l = 1; l < W; ++l) s += a[l];
  return s;
}

template <class T, int W>
inline T reduce_max(const simd<T, W>& a) {
  T s = a[0];
  for (int l = 1; l < W; ++l)
    if (a[l] > s) s = a[l];
  return s;
}

/// Masked ordered sum: inactive lanes contribute nothing (not even +0.0, so
/// signed-zero behaviour matches the scalar loop that skipped them).
template <class T, int W>
inline T reduce_sum_masked(const simd_mask<W>& m, const simd<T, W>& a) {
  T s = T(0);
  bool seeded = false;
  for (int l = 0; l < W; ++l) {
    if (!m[l]) continue;
    if (!seeded) {
      s = a[l];
      seeded = true;
    } else {
      s += a[l];
    }
  }
  return s;
}

template <class T, int W>
inline simd<T, W> sqrt(const simd<T, W>& a) {
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.set_lane(l, std::sqrt(a[l]));
  return r;
}

/// Lane-serial transcendental (no vector libm in the toolchain): exp runs
/// one scalar call per lane; the surrounding polynomial/rational math still
/// vectorizes. Documented in VECTORIZATION.md's porting notes.
template <class T, int W>
inline simd<T, W> exp(const simd<T, W>& a) {
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.set_lane(l, std::exp(a[l]));
  return r;
}

template <class T, int W>
inline simd<T, W> min(const simd<T, W>& a, const simd<T, W>& b) {
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.set_lane(l, a[l] < b[l] ? a[l] : b[l]);
  return r;
}

template <class T, int W>
inline simd<T, W> max(const simd<T, W>& a, const simd<T, W>& b) {
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.set_lane(l, a[l] > b[l] ? a[l] : b[l]);
  return r;
}

// ---------------------------------------------------------------------------
// where() masking — Kokkos-SIMD-style masked assignment:
//   kk::where(mask, acc) += contribution;   // inactive lanes unchanged
// ---------------------------------------------------------------------------

template <class T, int W>
class where_expr {
 public:
  where_expr(const simd_mask<W>& m, simd<T, W>& v) : m_(m), v_(v) {}

  // Branchless: evaluate on every lane, blend the result in where active
  // (IEEE default environment — no traps on the discarded lanes).
  void operator=(const simd<T, W>& o) { v_ = select(m_, o, v_); }
  void operator+=(const simd<T, W>& o) { v_ = select(m_, v_ + o, v_); }
  void operator-=(const simd<T, W>& o) { v_ = select(m_, v_ - o, v_); }
  void operator*=(const simd<T, W>& o) { v_ = select(m_, v_ * o, v_); }

 private:
  const simd_mask<W>& m_;
  simd<T, W>& v_;
};

template <class T, int W>
inline where_expr<T, W> where(const simd_mask<W>& m, simd<T, W>& v) {
  return where_expr<T, W>(m, v);
}

// ---------------------------------------------------------------------------
// Vectorized-launch accounting: each kernel that takes its SIMD path calls
// count_launch(name) once per dispatch. Benches attach the counters to
// their metrics JSON as the "simd" section (docs/OBSERVABILITY.md).
// ---------------------------------------------------------------------------

namespace simdstats {

namespace detail {
struct Registry {
  std::mutex mu;
  std::map<std::string, std::uint64_t> launches;
};
inline Registry& registry() {
  static Registry r;
  return r;
}
}  // namespace detail

/// Record one vectorized dispatch of `kernel` (launch granularity, not per
/// row — negligible cost next to the kernel body).
inline void count_launch(const std::string& kernel) {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.launches[kernel];
}

inline std::map<std::string, std::uint64_t> launches() {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.launches;
}

inline void reset() {
  auto& r = detail::registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.launches.clear();
}

/// `{"name": count, ...}` for bench metrics composition.
inline std::string launches_json() {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, n] : launches()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(n);
  }
  return out + "}";
}

/// The full "simd" metrics section: lane width, enabled flag, per-kernel
/// vectorized launch counts.
inline std::string json_fragment() {
  return std::string("{\"width\":") + std::to_string(native_simd_width) +
         ",\"enabled\":" + (simd_enabled() ? "true" : "false") +
         ",\"launches\":" + launches_json() + "}";
}

}  // namespace simdstats

}  // namespace kk
