// Discrete-event simulation core.
//
// `Scheduler` is the clock + event queue every component holds
// (`now`/`schedule_at`/`schedule_after`/`run_until`). A 4-ary min-heap of
// small (time, seq, slot) keys owns simulated time, and `run_until` drains
// it in timestamp order with ties broken by insertion order, so runs are
// fully deterministic.
//
// Scheduling an event allocates nothing and returns nothing. The callable
// is constructed in place in a pooled fixed-size slot with kInlineBytes of
// inline storage (a larger capture falls back to one heap allocation). Slots
// live in a chunked slab, so a slot never moves while its callback schedules
// more events, and a free list recycles them. The callback runs in place;
// its slot is destroyed and freed on every exit path, a throwing callback
// included. Under AddressSanitizer a free slot's storage is poisoned.
//
// One-shot events cannot be cancelled. Only PeriodicTask cancels its queued
// firing, through a private token (a slot plus its generation), so a stale
// cancel never hits a recycled slot. A Scheduler must outlive every
// PeriodicTask built on it. Single-threaded by contract: no locks, no
// atomics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace rpm::sim {

/// Type-erased event callback, for callers that store one (PeriodicTask).
/// `schedule_at` takes any callable and stores it without std::function.
using EventFn = std::function<void()>;

namespace detail {
/// Callables that can be empty: scheduling an empty one is an error.
template <class F>
inline constexpr bool kNullable = std::is_pointer_v<F>;
template <class R, class... A>
inline constexpr bool kNullable<std::function<R(A...)>> = true;
}  // namespace detail

/// The simulation scheduler: one single-threaded event queue.
class Scheduler {
 public:
  /// Inline capture storage per slot. The largest hot capture, the RNIC tx
  /// hop (`this`, a Datagram, wr_id, qpn, a flag), is 96 bytes.
  static constexpr std::size_t kInlineBytes = 96;
  /// Slots per slab chunk.
  static constexpr std::uint32_t kChunkSlots = 1024;

  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `t` (clamped to now()).
  /// Throws std::invalid_argument for an empty std::function or null
  /// function pointer.
  template <class F>
  void schedule_at(TimeNs t, F&& fn) {
    (void)enqueue(t, std::forward<F>(fn));
  }

  /// Schedule `fn` `delay` nanoseconds from now (delay < 0 is clamped to 0).
  template <class F>
  void schedule_after(TimeNs delay, F&& fn) {
    (void)enqueue(now_ + (delay > 0 ? delay : 0), std::forward<F>(fn));
  }

  /// Run events until simulated time would exceed `t_end`; afterwards
  /// now() == t_end. Events scheduled exactly at t_end are executed.
  void run_until(TimeNs t_end);

  /// Run until the event queue is empty (use with care: self-rescheduling
  /// periodic events make this unbounded).
  void run_all();

  /// Consume at most one pending entry; returns false if the queue is empty.
  bool step();

  /// Events currently queued (a cancelled PeriodicTask firing counts until
  /// it is popped).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

  /// Total events executed so far (cancelled entries are skipped, not
  /// executed).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Wall-clock dispatch observer: when set, every executed event's callback
  /// is timed with std::chrono::steady_clock and the elapsed nanoseconds are
  /// reported as the second argument. The first argument is always 0; it is
  /// kept so existing two-argument observers still bind. Purely
  /// observational — it cannot affect event order or simulated time (the
  /// profiler installs one; see prof::Profiler::attach_scheduler). One branch
  /// per event when unset.
  using DispatchObserver =
      std::function<void(std::uint32_t, std::uint64_t wall_ns)>;
  void set_dispatch_observer(DispatchObserver obs) {
    dispatch_observer_ = std::move(obs);
  }

 private:
  friend class PeriodicTask;

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// How a slot runs and destroys the callable in its storage.
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };
  template <class Fn>
  struct InlineOps {
    static Fn& get(void* p) { return *std::launder(static_cast<Fn*>(p)); }
    static void invoke(void* p) { get(p)(); }
    static void destroy(void* p) noexcept { get(p).~Fn(); }
    static constexpr Ops kOps{&invoke, &destroy};
  };
  template <class Fn>
  struct HeapOps {
    static Fn*& get(void* p) { return *std::launder(static_cast<Fn**>(p)); }
    static void invoke(void* p) { (*get(p))(); }
    static void destroy(void* p) noexcept { delete get(p); }
    static constexpr Ops kOps{&invoke, &destroy};
  };

  /// One pooled event. `ops` is null while the slot is free or its event
  /// was cancelled. `gen` advances whenever the event stops being pending
  /// (it starts running or is cancelled), which makes older tokens stale.
  struct alignas(64) Slot {
    const Ops* ops = nullptr;
    std::uint64_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };

  struct Key {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Names one queued event for PeriodicTask. The default token is inert.
  struct Token {
    std::uint32_t slot = kNoSlot;
    std::uint64_t gen = 0;
  };

  template <class F>
  Token enqueue(TimeNs t, F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (detail::kNullable<Fn>) {
      if (!fn) throw std::invalid_argument("schedule_at: empty callback");
    }
    const std::uint32_t i = acquire();
    Slot& s = slot(i);
    try {
      if constexpr (sizeof(Fn) <= kInlineBytes &&
                    alignof(Fn) <= alignof(std::max_align_t)) {
        ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
        s.ops = &InlineOps<Fn>::kOps;
      } else {
        ::new (static_cast<void*>(s.storage)) Fn*(new Fn(std::forward<F>(fn)));
        s.ops = &HeapOps<Fn>::kOps;
      }
    } catch (...) {
      release(i);
      throw;
    }
    push(t < now_ ? now_ : t, i);
    return Token{i, s.gen};
  }

  Slot& slot(std::uint32_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  /// Pop a free slot, growing the slab by one chunk when none is left.
  std::uint32_t acquire();
  /// Destroy the slot's callable (if any) and return it to the free list.
  void release(std::uint32_t i) noexcept;
  void push(TimeNs t, std::uint32_t i) noexcept;
  Key pop() noexcept;
  void dispatch(const Key& k);

  /// Queued, and neither running, finished nor cancelled.
  [[nodiscard]] bool pending(Token tok) const;
  void cancel(Token tok) noexcept;

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  DispatchObserver dispatch_observer_;
  std::vector<Key> heap_;  // capacity >= slab size: push never reallocates
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
};

/// Kept for code that constructs the scheduler by its backend name (tests,
/// bench/, perfbench/).
using InlineScheduler = Scheduler;

/// Repeatedly invokes a callback with a fixed period until cancelled.
/// The callback may adjust the period for the next firing via set_period().
/// cancel() (and the destructor) revoke the queued firing itself, so no
/// stale closure ever runs.
class PeriodicTask {
 public:
  PeriodicTask(Scheduler& sched, TimeNs period, EventFn fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start(TimeNs first_delay = 0);
  void cancel();
  [[nodiscard]] bool running() const { return running_; }

  void set_period(TimeNs period);
  [[nodiscard]] TimeNs period() const { return period_; }

 private:
  void arm(TimeNs delay);
  void fire();

  Scheduler& sched_;
  TimeNs period_;
  EventFn fn_;
  bool running_ = false;
  Scheduler::Token pending_;
};

}  // namespace rpm::sim
