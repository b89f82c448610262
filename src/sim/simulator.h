// Deterministic discrete-event simulation kernel.
//
// The Simulator owns a virtual clock and an event queue ordered by
// (fire time, insertion sequence). Coroutines (sim::Task) suspend on
// awaitables (sleep, channels, socket operations in net/) and are resumed by
// queued events. Because the queue order is a total order and all randomness
// flows from one seeded Rng, every run is bit-reproducible — the property the
// paper's deterministic fault-injection strategy relies on (§5.1).
//
// Lifetime rules (important):
//  * Detached coroutines spawned via spawn() are tracked; any still suspended
//    when the Simulator is destroyed are destroyed then (queue first, then
//    frames). Destructors must never resume coroutines.
//  * Awaitable providers (channels, sockets) must outlive coroutines that
//    await them; in this project they are owned by the Simulator's world
//    (Network, processes) which is destroyed after all frames.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/recorder.h"
#include "sim/event_fn.h"
#include "sim/task.h"

namespace mead::sim {

/// Handle to a scheduled event, for cancellation. A token is invalidated
/// when its event runs or is cancelled; cancelling an invalid token is a
/// safe no-op (the generation check rejects it).
struct TimerToken {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

namespace detail {

/// Intrusive list node in every spawned root's promise; it unlinks itself
/// when its frame is destroyed. The Simulator owns the sentinel.
struct RootLink {
  RootLink* prev = this;
  RootLink* next = this;

  RootLink() = default;
  RootLink(const RootLink&) = delete;
  RootLink& operator=(const RootLink&) = delete;
  ~RootLink() {
    prev->next = next;
    next->prev = prev;
  }
};

}  // namespace detail

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const { return now_; }

  [[nodiscard]] Logger& log() { return logger_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// The simulation's observability context (metrics + event trace); the
  /// trace's virtual-clock source is this simulator.
  [[nodiscard]] obs::Recorder& obs() { return obs_; }
  [[nodiscard]] const obs::Recorder& obs() const { return obs_; }

  /// Enqueues `fn` to run `delay` from now. Events at equal times run in
  /// insertion order. Negative delays are clamped to zero. The callable is
  /// built in place in a small-buffer-optimized EventFn slot (see
  /// sim/event_fn.h for the trivial-relocatability contract); the common
  /// event shapes never touch the heap. Zero-delay events — coroutine wakes,
  /// the single most common shape — bypass the priority queue entirely via a
  /// FIFO lane: they are already in (time, seq) order by construction, so
  /// the merged schedule is the same total order at O(1) per event.
  template <typename F>
  TimerToken schedule(Duration delay, F&& fn) {
    const std::uint32_t slot = slots_.emplace(std::forward<F>(fn));
    const std::uint32_t gen = slots_.gen(slot);
    if (delay.ns() <= 0) {
      fifo_.push_back(HeapEntry{now_, next_seq_++, slot, gen});
    } else {
      queue_.push(HeapEntry{now_ + delay, next_seq_++, slot, gen});
    }
    return TimerToken{slot, gen};
  }

  /// Cancels a scheduled event: its callable is destroyed now and the queue
  /// entry becomes inert (it still pops at its fire time — advancing the
  /// clock exactly as an empty event would — but invokes nothing). Returns
  /// false if the event already ran or was already cancelled. Used by socket
  /// timeouts so completed reads don't leave live deadline closures behind.
  bool cancel(TimerToken t) {
    if (slots_.gen(t.slot) != t.gen) return false;
    slots_.invalidate(t.slot);
    slots_[t.slot].reset();
    slots_.release(t.slot);
    return true;
  }

  /// Starts a detached coroutine. It begins executing at the current virtual
  /// time (as a queued event, not inline).
  void spawn(Task<void> task);

  /// Awaitable: suspends the current coroutine for `d` of virtual time.
  /// sleep(Duration{0}) yields (requeues at the back of the current instant).
  [[nodiscard]] auto sleep(Duration d) {
    struct Awaiter {
      Simulator* sim;
      Duration d;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim->schedule(d, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Runs until the event queue is empty.
  void run();

  /// Runs until the queue is empty or virtual time would pass `deadline`;
  /// finishes with now() == deadline if the limit was reached.
  void run_until(TimePoint deadline);

  /// Runs for `d` more virtual time (convenience over run_until).
  void run_for(Duration d) { run_until(now_ + d); }

  /// True if no events remain.
  [[nodiscard]] bool idle() const { return fifo_.empty() && queue_.empty(); }

  /// Number of events executed so far (for kernel micro-benchmarks).
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

 private:
  // The priority queue holds only trivially copyable (time, seq, slot)
  // triples; the callables themselves sit in a chunked slot arena. Heap
  // sifts then move 24-byte PODs instead of full closures, which is where
  // the kernel's events/sec comes from (see bench_micro).
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;  // must match the slot's generation to fire
  };
  static bool entry_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// Min-heap over (at, seq) with branching factor 4: half the depth of a
  /// binary heap and all four children on one cache line, which measurably
  /// beats std::priority_queue on the timer-drain pattern (see bench_micro).
  class TimerHeap {
   public:
    [[nodiscard]] bool empty() const { return v_.empty(); }
    [[nodiscard]] const HeapEntry& top() const { return v_.front(); }
    void clear() { v_.clear(); }

    void push(const HeapEntry& e) {
      // One mid-sized reservation instead of a doubling cascade: the first
      // ~10 growth steps would copy the live heap each time, which shows up
      // on the timer-drain microbenchmark.
      if (v_.capacity() == v_.size()) {
        v_.reserve(v_.empty() ? 1024 : 2 * v_.size());
      }
      v_.push_back(e);
      std::size_t i = v_.size() - 1;
      while (i != 0) {
        const std::size_t p = (i - 1) >> 2;
        if (!entry_before(v_[i], v_[p])) break;
        std::swap(v_[i], v_[p]);
        i = p;
      }
    }

    void pop() {
      const HeapEntry last = v_.back();
      v_.pop_back();
      if (v_.empty()) return;
      const std::size_t n = v_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t c = 4 * i + 1;
        if (c >= n) break;
        std::size_t m = c;
        const std::size_t end = c + 4 < n ? c + 4 : n;
        for (std::size_t k = c + 1; k < end; ++k) {
          if (entry_before(v_[k], v_[m])) m = k;
        }
        if (!entry_before(v_[m], last)) break;
        v_[i] = v_[m];
        i = m;
      }
      v_[i] = last;
    }

   private:
    std::vector<HeapEntry> v_;
  };

  /// Chunked, stable storage for pending events' callables. Blocks never
  /// move, so an event is invoked in place — even while it schedules new
  /// events (which may grow the arena) — and growth never relocates pending
  /// closures. Freed slots are recycled LIFO for cache locality.
  class SlotArena {
   public:
    template <typename F>
    [[nodiscard]] std::uint32_t emplace(F&& fn) {
      std::uint32_t slot;
      if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
      } else {
        if ((high_water_ >> kBlockShift) == blocks_.size()) {
          blocks_.push_back(std::make_unique<EventFn[]>(kBlockSize));
          gens_.resize(gens_.size() + kBlockSize, 0);
        }
        slot = high_water_++;
      }
      if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
        (*this)[slot] = std::forward<F>(fn);
      } else {
        (*this)[slot].emplace(std::forward<F>(fn));
      }
      return slot;
    }
    [[nodiscard]] EventFn& operator[](std::uint32_t slot) {
      return blocks_[slot >> kBlockShift][slot & kBlockMask];
    }
    [[nodiscard]] std::uint32_t gen(std::uint32_t slot) const {
      return gens_[slot];
    }
    /// Bumps the slot's generation so outstanding TimerTokens and queue
    /// entries referencing it become stale. Done exactly once per event
    /// lifetime — at dispatch or at cancellation, whichever comes first —
    /// which also makes cancel() re-entrancy-safe while the event runs.
    void invalidate(std::uint32_t slot) { ++gens_[slot]; }
    void release(std::uint32_t slot) { free_.push_back(slot); }
    void clear() {
      blocks_.clear();
      gens_.clear();
      free_.clear();
      high_water_ = 0;
    }

   private:
    static constexpr std::uint32_t kBlockShift = 8;
    static constexpr std::uint32_t kBlockSize = 1u << kBlockShift;
    static constexpr std::uint32_t kBlockMask = kBlockSize - 1;
    std::vector<std::unique_ptr<EventFn[]>> blocks_;
    std::vector<std::uint32_t> gens_;
    std::vector<std::uint32_t> free_;
    std::uint32_t high_water_ = 0;
  };

  /// The earliest pending event across the FIFO lane and the heap, or
  /// nullptr when idle. Both sources are (time, seq)-sorted, so this is a
  /// two-way merge peek.
  [[nodiscard]] const HeapEntry* peek_next() const;
  /// Pops the entry peek_next() returned (pass its pointer back in).
  void pop_entry(const HeapEntry* e);
  void step(const HeapEntry& e);

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  TimerHeap queue_;
  std::deque<HeapEntry> fifo_;
  SlotArena slots_;
  /// Sentinel of the spawned roots still suspended, in spawn order.
  detail::RootLink roots_;
  Logger logger_;
  Rng rng_;
  obs::Recorder obs_{[this] { return now_; }};
};

}  // namespace mead::sim
