// kk::simd — the explicit SIMD vector backend of minikokkos
// (docs/VECTORIZATION.md).
//
// A fixed-width pack type `kk::simd<T, W>` with where()-masking, gathers,
// and an ordered horizontal sum.
//
// The pack is the single source of vector semantics for the whole engine.
// A kernel's lane width is a template parameter, fixed when the build
// instantiates it: kernels run at the native width (AVX-512: 8 doubles,
// otherwise 4), and at W == 1 every pack op degrades to exactly one scalar
// op in the same order. The W == 1 instantiation therefore *is* the scalar
// reference path, which is what makes the per-kernel equivalence policy of
// VECTORIZATION.md checkable: tests compare each kernel's native width with
// its own W == 1.
//
// Arithmetic lowers through GNU vector extensions (guaranteed SIMD codegen
// at any optimization level); lane-structured operations (gather, select,
// masks, reductions) are fixed-trip-count lane loops the compiler unrolls
// and blends. A plain-array fallback keeps non-GNU compilers building.
//
// Floating-point semantics: every lane op is plain IEEE double/float math,
// identical to the scalar expression; only the *horizontal* sum imposes an
// order (lane 0..W-1, lowest first), so any reassociation relative to a
// scalar loop comes from the accumulation pattern of the calling kernel,
// never from the pack layer itself.
#pragma once

#include <cmath>
#include <cstring>
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

namespace simd_detail {
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
  bool none() const { return !any(); }

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

  /// Gather through a callable `fn(lane) -> T` for every lane (use when all
  /// lane sources are valid, e.g. padded index arrays). The lanes build a
  /// vector braced-init via pack expansion (left-to-right, so lane order is
  /// deterministic): the pack assembles in registers, avoiding the
  /// store-forwarding stalls of a stack-buffer round trip. Always inlined:
  /// inside a large kernel body GCC otherwise emits a call per gather.
  template <class F>
  [[gnu::always_inline]] static simd gather(F&& fn) {
#if defined(MLK_SIMD_VECTOR_EXT)
    return gather_impl(fn, std::make_integer_sequence<int, W>{});
#else
    simd r;
    for (int l = 0; l < W; ++l) r.v_[l] = fn(l);
    return r;
#endif
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

 private:
#if defined(MLK_SIMD_VECTOR_EXT)
  template <int... Ls>
  static simd splat(T s, std::integer_sequence<int, Ls...>) {
    return simd(storage{((void)Ls, s)...});
  }
  template <class F, int... Ls>
  [[gnu::always_inline]] static simd gather_impl(
      F&& fn, std::integer_sequence<int, Ls...>) {
    return simd(storage{fn(Ls)...});
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

/// Ordered horizontal sum, lane 0 first — the one place the pack layer
/// fixes an FP association order.
template <class T, int W>
inline T reduce_sum(const simd<T, W>& a) {
  T s = a[0];
  for (int l = 1; l < W; ++l) s += a[l];
  return s;
}

template <class T, int W>
inline simd<T, W> sqrt(const simd<T, W>& a) {
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.set_lane(l, std::sqrt(a[l]));
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

}  // namespace kk
