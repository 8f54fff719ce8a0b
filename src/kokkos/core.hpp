// minikokkos execution patterns: parallel_for / parallel_reduce /
// parallel_scan over RangePolicy, plus atomic helpers and
// kernel-launch profiling hooks consumed by the performance model.
//
// Host space executes serially on the calling thread (the "one MPI rank per
// core" CPU model of the paper); Device space dispatches to the thread pool
// with GPU-like semantics (unordered work items, atomics required for
// write conflicts).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "kokkos/instance.hpp"
#include "kokkos/profiling.hpp"
#include "kokkos/threadpool.hpp"
#include "kokkos/view.hpp"

namespace kk {

// Global fence: drains the work queue of every live DeviceInstance.
// Dispatches without an instance argument are synchronous (the implicit
// "default instance" fences on return), so with no async instances live
// this degenerates to the KokkosP fence event alone.
inline void fence() {
  DeviceInstance::fence_all();
  profiling::fence_event("kk::fence");
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

template <class Space = DefaultExecutionSpace>
struct RangePolicy {
  using space = Space;
  std::size_t begin = 0;
  std::size_t end = 0;
  RangePolicy(std::size_t b, std::size_t e) : begin(b), end(e) {}
  explicit RangePolicy(std::size_t e) : begin(0), end(e) {}
};

// ---------------------------------------------------------------------------
// Reducers
// ---------------------------------------------------------------------------

template <class T>
struct Sum {
  using value_type = T;
  T& ref;
  explicit Sum(T& r) : ref(r) {}
  static void init(T& v) { v = T(0); }
  static void join(T& a, const T& b) { a += b; }
};

template <class T>
struct Max {
  using value_type = T;
  T& ref;
  explicit Max(T& r) : ref(r) {}
  static void init(T& v) { v = std::numeric_limits<T>::lowest(); }
  static void join(T& a, const T& b) {
    if (b > a) a = b;
  }
};

template <class T>
struct Min {
  using value_type = T;
  T& ref;
  explicit Min(T& r) : ref(r) {}
  static void init(T& v) { v = std::numeric_limits<T>::max(); }
  static void join(T& a, const T& b) {
    if (b < a) a = b;
  }
};

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

template <class Space, class F>
void parallel_for(const std::string& name, RangePolicy<Space> p, const F& f) {
  const std::size_t n = p.end > p.begin ? p.end - p.begin : 0;
  profiling::ScopedKernel ev(profiling::KernelType::ParallelFor, name,
                             Space::is_device, n);
  if (n == 0) return;
  if constexpr (Space::is_device) {
    ThreadPool::instance().parallel(
        n, [&](std::size_t b, std::size_t e, int rank) {
          profiling::ScopedWorkerChunk wc(ev.id(), rank, b, e);
          for (std::size_t i = b; i < e; ++i) f(p.begin + i);
        });
  } else {
    for (std::size_t i = p.begin; i < p.end; ++i) f(i);
  }
}

template <class F>
void parallel_for(const std::string& name, std::size_t n, const F& f) {
  parallel_for(name, RangePolicy<DefaultExecutionSpace>(n), f);
}

// ---------------------------------------------------------------------------
// parallel_reduce
// ---------------------------------------------------------------------------

template <class Space, class F, class Reducer>
void parallel_reduce_impl(const std::string& name, RangePolicy<Space> p,
                          const F& f, Reducer red) {
  using T = typename Reducer::value_type;
  const std::size_t n = p.end > p.begin ? p.end - p.begin : 0;
  profiling::ScopedKernel ev(profiling::KernelType::ParallelReduce, name,
                             Space::is_device, n);
  T result;
  Reducer::init(result);
  if constexpr (Space::is_device) {
    const int nmax = ThreadPool::instance().concurrency();
    std::vector<T> partial;
    partial.resize(std::size_t(nmax));
    for (auto& v : partial) Reducer::init(v);
    ThreadPool::instance().parallel(
        n, [&](std::size_t b, std::size_t e, int rank) {
          profiling::ScopedWorkerChunk wc(ev.id(), rank, b, e);
          T local;
          Reducer::init(local);
          for (std::size_t i = b; i < e; ++i) f(p.begin + i, local);
          Reducer::join(partial[std::size_t(rank)], local);
        });
    for (const auto& v : partial) Reducer::join(result, v);
  } else {
    for (std::size_t i = p.begin; i < p.end; ++i) f(i, result);
  }
  red.ref = result;
}

/// Sum-reduction form: f(i, T& update).
template <class Space, class F, class T>
void parallel_reduce(const std::string& name, RangePolicy<Space> p, const F& f,
                     T& sum) {
  parallel_reduce_impl(name, p, f, Sum<T>(sum));
}

template <class Space, class F, class T>
void parallel_reduce(const std::string& name, RangePolicy<Space> p, const F& f,
                     Max<T> red) {
  parallel_reduce_impl(name, p, f, red);
}

template <class Space, class F, class T>
void parallel_reduce(const std::string& name, RangePolicy<Space> p, const F& f,
                     Min<T> red) {
  parallel_reduce_impl(name, p, f, red);
}

template <class F, class T>
void parallel_reduce(const std::string& name, std::size_t n, const F& f,
                     T& sum) {
  parallel_reduce(name, RangePolicy<DefaultExecutionSpace>(n), f, sum);
}

// ---------------------------------------------------------------------------
// parallel_scan (exclusive prefix sum semantics, Kokkos convention:
// f(i, update, final) sees `update` = sum of values for indices < i when
// `final` is true, and must add its own value to `update`.)
// ---------------------------------------------------------------------------

template <class Space, class F, class T>
void parallel_scan(const std::string& name, RangePolicy<Space> p, const F& f,
                   T& total) {
  const std::size_t n = p.end > p.begin ? p.end - p.begin : 0;
  profiling::ScopedKernel ev(profiling::KernelType::ParallelScan, name,
                             Space::is_device, n);
  if (n == 0) {
    total = T(0);
    return;
  }
  if constexpr (Space::is_device) {
    auto& pool = ThreadPool::instance();
    const int nmax = pool.concurrency();
    std::vector<T> chunk_sum(std::size_t(nmax) + 1, T(0));
    // Pass 1: per-chunk partial sums. Chunk boundaries must match pass 2, so
    // compute them identically from pool size.
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.resize(std::size_t(nmax));
    pool.parallel(n, [&](std::size_t b, std::size_t e, int rank) {
      ranges[std::size_t(rank)] = {b, e};
      T local = T(0);
      for (std::size_t i = b; i < e; ++i) f(p.begin + i, local, false);
      chunk_sum[std::size_t(rank) + 1] = local;
    });
    for (int r = 0; r < nmax; ++r) chunk_sum[r + 1] += chunk_sum[r];
    // Pass 2: final scan with chunk offsets.
    pool.parallel(n, [&](std::size_t b, std::size_t e, int rank) {
      T local = chunk_sum[std::size_t(rank)];
      (void)b;
      (void)e;
      auto [rb, re] = ranges[std::size_t(rank)];
      for (std::size_t i = rb; i < re; ++i) f(p.begin + i, local, true);
    });
    total = chunk_sum[std::size_t(nmax)];
  } else {
    T local = T(0);
    for (std::size_t i = p.begin; i < p.end; ++i) f(i, local, true);
    total = local;
  }
}

template <class F, class T>
void parallel_scan(const std::string& name, std::size_t n, const F& f,
                   T& total) {
  parallel_scan(name, RangePolicy<DefaultExecutionSpace>(n), f, total);
}

// ---------------------------------------------------------------------------
// Asynchronous dispatch onto a DeviceInstance. The functor and policy are
// copied into the task (Kokkos capture-by-value semantics); the call returns
// immediately and the kernel runs on the instance's stream thread in
// submission order. Reduction results are written through the caller's
// reference when the task executes — read them only after instance.fence().
// ---------------------------------------------------------------------------

template <class Space, class F>
void parallel_for(DeviceInstance& instance, const std::string& name,
                  RangePolicy<Space> p, const F& f) {
  instance.enqueue(name, [name, p, f] { parallel_for(name, p, f); });
}

template <class F>
void parallel_for(DeviceInstance& instance, const std::string& name,
                  std::size_t n, const F& f) {
  parallel_for(instance, name, RangePolicy<DefaultExecutionSpace>(n), f);
}

template <class Space, class F, class T>
void parallel_reduce(DeviceInstance& instance, const std::string& name,
                     RangePolicy<Space> p, const F& f, T& sum) {
  T* out = &sum;
  instance.enqueue(name,
                   [name, p, f, out] { parallel_reduce(name, p, f, *out); });
}

// ---------------------------------------------------------------------------
// Atomics (C++20 atomic_ref over plain storage, as GPU atomics over global
// memory). Counted via profiling so the perf model can price atomic traffic.
// ---------------------------------------------------------------------------

template <class T>
inline void atomic_add(T* addr, T val) {
  std::atomic_ref<T>(*addr).fetch_add(val, std::memory_order_relaxed);
}

template <class T>
inline T atomic_fetch_add(T* addr, T val) {
  return std::atomic_ref<T>(*addr).fetch_add(val, std::memory_order_relaxed);
}

template <class T>
inline void atomic_max(T* addr, T val) {
  std::atomic_ref<T> a(*addr);
  T cur = a.load(std::memory_order_relaxed);
  while (val > cur &&
         !a.compare_exchange_weak(cur, val, std::memory_order_relaxed)) {
  }
}

}  // namespace kk
