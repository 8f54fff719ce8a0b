// Hierarchical (team) parallelism (§3.3): TeamPolicy, TeamMember,
// TeamThreadRange / ThreadVectorRange / TeamVectorRange nested loops, and
// team scratch memory (the software-managed cache of §4.4).
//
// Emulation model: each *team* is one unit of pool work — leagues are
// distributed across pool threads; within a team, *thread* lanes execute
// sequentially on the owning pool thread (the standard serial-team
// emulation). The *vector* level is real: vector_for maps ThreadVectorRange
// iterations onto kk::simd lanes (docs/VECTORIZATION.md) — native pack
// width with SIMD on, width 1 (the scalar reference) with it off — so
// single-source kernels vectorize without per-kernel intrinsics. The plain
// parallel_for over a ThreadVectorRange remains the scalar per-lane loop.
// The logical team/vector sizes are preserved so that the perf model can
// price occupancy and convergence, and so algorithms are written exactly
// as they would be for a GPU.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "kokkos/core.hpp"
#include "kokkos/simd.hpp"

namespace kk {

template <class Space = DefaultExecutionSpace>
struct TeamPolicy {
  using space = Space;
  std::size_t league_size = 0;
  int team_size = 1;
  int vector_length = 1;
  std::size_t scratch_bytes = 0;

  TeamPolicy(std::size_t league, int team, int vec = 1)
      : league_size(league), team_size(team), vector_length(vec) {}

  TeamPolicy& set_scratch_size(std::size_t bytes) {
    scratch_bytes = bytes;
    return *this;
  }
};

/// One cache line of team scratch. Arenas are arrays of these, so every
/// arena starts 64-byte aligned and team_scratch<T>, which aligns offsets
/// from the arena start, hands out addresses aligned for any kk::simd pack.
struct alignas(64) ScratchLine {
  unsigned char bytes[64];
};
static_assert(alignof(ScratchLine) >=
              alignof(simd<double, native_simd_width>));
using ScratchArena = std::unique_ptr<ScratchLine[]>;

inline ScratchArena make_scratch_arena(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  return ScratchArena(new ScratchLine[(bytes + sizeof(ScratchLine) - 1) /
                                      sizeof(ScratchLine)]);
}

class TeamMember {
 public:
  TeamMember(std::size_t league_rank, std::size_t league_size, int team_size,
             int vector_length, ScratchLine* scratch,
             std::size_t scratch_bytes)
      : league_rank_(league_rank),
        league_size_(league_size),
        team_size_(team_size),
        vector_length_(vector_length),
        scratch_(reinterpret_cast<char*>(scratch)),
        scratch_bytes_(scratch_bytes) {}

  std::size_t league_rank() const { return league_rank_; }
  std::size_t league_size() const { return league_size_; }
  int team_rank() const { return 0; }  // serial-team emulation
  int team_size() const { return team_size_; }
  int vector_length() const { return vector_length_; }
  void team_barrier() const {}  // team executes sequentially

  /// Carve `count` elements of T from team scratch (aligned).
  template <class T>
  T* team_scratch(std::size_t count) const {
    const std::size_t align = alignof(T);
    std::size_t off = (scratch_off_ + align - 1) / align * align;
    T* p = reinterpret_cast<T*>(scratch_ + off);
    scratch_off_ = off + count * sizeof(T);
    if (scratch_off_ > scratch_bytes_) return nullptr;  // over-subscribed
    return p;
  }

  std::size_t scratch_bytes() const { return scratch_bytes_; }

 private:
  std::size_t league_rank_;
  std::size_t league_size_;
  int team_size_;
  int vector_length_;
  char* scratch_;
  std::size_t scratch_bytes_;
  mutable std::size_t scratch_off_ = 0;
};

// Nested iteration ranges -----------------------------------------------

struct TeamThreadRange {
  const TeamMember& m;
  std::size_t begin, end;
  TeamThreadRange(const TeamMember& mem, std::size_t n)
      : m(mem), begin(0), end(n) {}
  TeamThreadRange(const TeamMember& mem, std::size_t b, std::size_t e)
      : m(mem), begin(b), end(e) {}
};

struct ThreadVectorRange {
  const TeamMember& m;
  std::size_t begin, end;
  ThreadVectorRange(const TeamMember& mem, std::size_t n)
      : m(mem), begin(0), end(n) {}
  ThreadVectorRange(const TeamMember& mem, std::size_t b, std::size_t e)
      : m(mem), begin(b), end(e) {}
};

struct TeamVectorRange {
  const TeamMember& m;
  std::size_t begin, end;
  TeamVectorRange(const TeamMember& mem, std::size_t n)
      : m(mem), begin(0), end(n) {}
};

template <class Range, class F>
void parallel_for(const Range& r, const F& f) {
  for (std::size_t i = r.begin; i < r.end; ++i) f(i);
}

template <class Range, class F, class T>
void parallel_reduce(const Range& r, const F& f, T& sum) {
  T local = T(0);
  for (std::size_t i = r.begin; i < r.end; ++i) f(i, local);
  sum = local;
}

/// Team-level exclusive scan, Kokkos convention (update holds the prefix
/// when final == true; callable must add its own contribution).
template <class Range, class F, class T>
void parallel_scan(const Range& r, const F& f, T& total) {
  T local = T(0);
  for (std::size_t i = r.begin; i < r.end; ++i) f(i, local, true);
  total = local;
}

/// Execute `f(member)` once per vector lane collapsed — Kokkos single().
template <class F>
void single(const TeamMember&, const F& f) {
  f();
}

// Vector-lane dispatch --------------------------------------------------

/// One block of W logical vector lanes handed to a vector_for body: lanes
/// cover indices [base, base+W), with `mask` deactivating lanes past the
/// range end (the remainder block). `width == 1` is the scalar reference
/// instantiation.
template <int W>
struct LaneBlock {
  static constexpr int width = W;
  std::size_t base;
  simd_mask<W> mask;
  std::size_t index(int lane) const { return base + std::size_t(lane); }
};

/// Iterate a range W lanes at a time at a fixed width; `f` receives a
/// LaneBlock<W> per block, the last one remainder-masked.
template <int W, class Range, class F>
void vector_for_width(const Range& r, const F& f) {
  std::size_t i = r.begin;
  for (; i + W <= r.end; i += W) f(LaneBlock<W>{i, simd_mask<W>(true)});
  if (i < r.end) f(LaneBlock<W>{i, simd_mask<W>::first(int(r.end - i))});
}

/// Single-source SIMD dispatch over the vector-lane level: the body is a
/// generic callable `f(auto lane_block)` written against kk::simd packs of
/// `decltype(lane_block)::width` lanes. With SIMD on (`MLK_SIMD`, `simd on`)
/// it instantiates at the native pack width; off, at width 1 — where every
/// pack op is one scalar op in the original order, i.e. the scalar
/// reference path. See docs/VECTORIZATION.md for the porting recipe.
template <class Range, class F>
void vector_for(const Range& r, const F& f) {
  if (simd_enabled())
    vector_for_width<native_simd_width>(r, f);
  else
    vector_for_width<1>(r, f);
}

// League dispatch --------------------------------------------------------

template <class Space, class F>
void parallel_for(const std::string& name, const TeamPolicy<Space>& p,
                  const F& f) {
  profiling::ScopedKernel ev(
      profiling::KernelType::ParallelFor, name, Space::is_device,
      p.league_size * std::size_t(p.team_size) * std::size_t(p.vector_length));
  if (p.league_size == 0) return;

  if constexpr (Space::is_device) {
    auto& pool = ThreadPool::instance();
    const int nmax = pool.concurrency();
    // One scratch arena per pool participant.
    std::vector<ScratchArena> scratch;
    for (int r = 0; r < nmax; ++r)
      scratch.push_back(make_scratch_arena(p.scratch_bytes));
    pool.parallel(p.league_size, [&](std::size_t b, std::size_t e, int rank) {
      profiling::ScopedWorkerChunk wc(ev.id(), rank, b, e);
      ScratchLine* sp = scratch[std::size_t(rank)].get();
      for (std::size_t lr = b; lr < e; ++lr) {
        TeamMember member(lr, p.league_size, p.team_size, p.vector_length, sp,
                          p.scratch_bytes);
        f(member);
      }
    });
  } else {
    const ScratchArena scratch = make_scratch_arena(p.scratch_bytes);
    for (std::size_t lr = 0; lr < p.league_size; ++lr) {
      TeamMember member(lr, p.league_size, p.team_size, p.vector_length,
                        scratch.get(), p.scratch_bytes);
      f(member);
    }
  }
}

/// League-level reduction: f(member, T&).
template <class Space, class F, class T>
void parallel_reduce(const std::string& name, const TeamPolicy<Space>& p,
                     const F& f, T& sum) {
  profiling::ScopedKernel ev(profiling::KernelType::ParallelReduce, name,
                             Space::is_device,
                             p.league_size * std::size_t(p.team_size));
  T result = T(0);
  if constexpr (Space::is_device) {
    auto& pool = ThreadPool::instance();
    const int nmax = pool.concurrency();
    std::vector<T> partial;
    partial.assign(std::size_t(nmax), T(0));
    std::vector<ScratchArena> scratch;
    for (int r = 0; r < nmax; ++r)
      scratch.push_back(make_scratch_arena(p.scratch_bytes));
    pool.parallel(p.league_size, [&](std::size_t b, std::size_t e, int rank) {
      profiling::ScopedWorkerChunk wc(ev.id(), rank, b, e);
      ScratchLine* sp = scratch[std::size_t(rank)].get();
      T local = T(0);
      for (std::size_t lr = b; lr < e; ++lr) {
        TeamMember member(lr, p.league_size, p.team_size, p.vector_length, sp,
                          p.scratch_bytes);
        f(member, local);
      }
      partial[std::size_t(rank)] += local;
    });
    for (const T& v : partial) result += v;
  } else {
    const ScratchArena scratch = make_scratch_arena(p.scratch_bytes);
    for (std::size_t lr = 0; lr < p.league_size; ++lr) {
      TeamMember member(lr, p.league_size, p.team_size, p.vector_length,
                        scratch.get(), p.scratch_bytes);
      f(member, result);
    }
  }
  sum = result;
}

}  // namespace kk
