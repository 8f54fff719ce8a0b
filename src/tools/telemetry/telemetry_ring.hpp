// TelemetryRing<T> — fixed-capacity lock-free SPSC ring buffer for the
// real-time telemetry layer (docs/OBSERVABILITY.md).
//
// Design goals, in priority order:
//
//   1. The producer (a Verlet step loop, the batch scheduler) is WAIT-FREE:
//      push() is a fixed-length sequence of atomic stores — no retry loops,
//      no CAS, no locks, no allocation, no syscalls. A stalled (or absent)
//      consumer can never slow a step.
//   2. Backpressure is DROP-OLDEST: when the consumer falls behind by more
//      than the capacity, the producer simply overwrites the oldest unread
//      slot. Freshness beats completeness for live observability — a
//      dashboard wants the latest step, not a complete history (the NDJSON
//      tail is best-effort by construction; the drop counter says exactly
//      how best).
//   3. Reads are never torn: every slot carries a seqlock-style generation
//      stamp written around the payload. A consumer that loses the race with
//      a lapping producer detects the overwrite and accounts the sample as
//      dropped instead of returning a frankensample.
//
// Memory layout: head (producer cursor), tail (consumer cursor) and the drop
// counter live on separate cache lines so the producer's store stream never
// false-shares with the consumer's.
//
// Sequence/stamp protocol, for slot i = seq & mask:
//   producer:  slot.stamp <- 2*seq+1 (odd: write in progress)
//              release fence; slot.value <- v; release fence
//              slot.stamp <- 2*seq+2 (even: generation seq complete)
//              head <- seq+1 (release)
//   consumer:  a read of generation seq is valid iff slot.stamp == 2*seq+2
//              both before and after the payload copy (acquire ordering).
// The payload copy on both sides is a sequence of relaxed atomic word
// accesses (load_relaxed/store_relaxed below): the consumer's copy may race
// with a lapping producer by design, and only atomic accesses make that
// race defined behaviour. On x86-64 they compile to the same plain moves.
//
// Single producer, single consumer. "Single producer" means no two threads
// push concurrently; handing the producer role across threads is fine when
// the handoff itself synchronizes (the batch scheduler's per-round fences do
// exactly that for a job's stepping thread).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace mlk::tools::telemetry {

/// Seqlock payload access: a relaxed atomic store/load of one word that a
/// concurrent reader/writer may touch. The stamp protocol, not these
/// accesses, orders the payload; they only keep the race defined.
template <typename W>
inline void store_relaxed(W& dst, W v) {
  std::atomic_ref<W>(dst).store(v, std::memory_order_relaxed);
}
template <typename W>
inline W load_relaxed(const W& src) {
  return std::atomic_ref<W>(const_cast<W&>(src))
      .load(std::memory_order_relaxed);
}

template <typename T>
class TelemetryRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "TelemetryRing payloads must be trivially copyable: the "
                "consumer copies them concurrently with producer overwrites "
                "and relies on the stamp (not the type) for integrity");

 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TelemetryRing(std::size_t capacity_hint = 1024)
      : cap_(round_up_pow2(capacity_hint)),
        mask_(cap_ - 1),
        slots_(cap_) {}

  TelemetryRing(const TelemetryRing&) = delete;
  TelemetryRing& operator=(const TelemetryRing&) = delete;

  std::size_t capacity() const { return cap_; }

  /// Producer side. Wait-free: a fixed number of stores, no retry loops.
  void push(const T& v) {
    const std::uint64_t w = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[w & mask_];
    s.stamp.store(2 * w + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t words[kWords] = {};
    std::memcpy(words, &v, sizeof(T));
    for (std::size_t k = 0; k < kWords; ++k)
      store_relaxed(s.words[k], words[k]);
    std::atomic_thread_fence(std::memory_order_release);
    s.stamp.store(2 * w + 2, std::memory_order_release);
    head_.store(w + 1, std::memory_order_release);
  }

  /// Consumer side. Returns false when no unread sample is available.
  /// Samples lost to drop-oldest overwrites are added to drops() exactly
  /// once: every sequence number ever pushed is either returned by pop()
  /// or counted dropped, never both, never neither.
  bool pop(T& out) {
    std::uint64_t r = tail_.load(std::memory_order_relaxed);
    const std::uint64_t w = head_.load(std::memory_order_acquire);
    if (r == w) return false;

    // Producer lapped us: everything older than w - cap_ is gone.
    if (w - r > cap_) {
      drops_.fetch_add(w - cap_ - r, std::memory_order_relaxed);
      r = w - cap_;
    }

    while (r != w) {
      if (read_slot(r, out)) {
        tail_.store(r + 1, std::memory_order_release);
        return true;
      }
      // Stamp mismatch: the producer overwrote (or is overwriting)
      // generation r while we looked. That sample is lost — count it and
      // try the next one.
      drops_.fetch_add(1, std::memory_order_relaxed);
      ++r;
    }
    tail_.store(r, std::memory_order_release);
    return false;
  }

  /// Unread samples right now (racy snapshot, consumer/monitoring use).
  std::size_t approx_size() const {
    const std::uint64_t w = head_.load(std::memory_order_acquire);
    const std::uint64_t r = tail_.load(std::memory_order_acquire);
    const std::uint64_t n = w - r;
    return n > cap_ ? cap_ : std::size_t(n);
  }

  /// Total samples ever pushed (producer cursor).
  std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Samples lost to drop-oldest backpressure (exact, see pop()).
  std::uint64_t drops() const {
    return drops_.load(std::memory_order_relaxed);
  }

 private:
  // The payload is stored as whole words so each can be copied atomically.
  static constexpr std::size_t kWords =
      (sizeof(T) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  // 0 = never written
    std::uint64_t words[kWords] = {};
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 2;
    while (p < n) p <<= 1;
    return p;
  }

  bool read_slot(std::uint64_t seq, T& out) {
    const Slot& s = slots_[seq & mask_];
    const std::uint64_t want = 2 * seq + 2;
    if (s.stamp.load(std::memory_order_acquire) != want) return false;
    std::uint64_t words[kWords];
    for (std::size_t k = 0; k < kWords; ++k)
      words[k] = load_relaxed(s.words[k]);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.stamp.load(std::memory_order_relaxed) != want) return false;
    std::memcpy(&out, words, sizeof(T));
    return true;
  }

  const std::size_t cap_;
  const std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // producer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> drops_{0};
  std::vector<Slot> slots_;
};

}  // namespace mlk::tools::telemetry
