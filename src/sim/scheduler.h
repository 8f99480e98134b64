// Discrete-event simulation core.
//
// `Scheduler` is the abstract clock + event-queue interface every component
// holds (`now`/`schedule_at`/`schedule_after`/`run_until`). Its one backend,
// InlineScheduler, is a single binary heap: one queue owns simulated time,
// and `run_until` drains events in timestamp order with ties broken by
// insertion order, so runs are fully deterministic.
//
// `schedule_at`/`schedule_after` return a cancellable EventHandle: cancel()
// guarantees the callback never runs (the queue entry is skipped when it
// surfaces). PeriodicTask is built on that guarantee.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.h"

namespace rpm::sim {

/// Event callback. Captures whatever state it needs; executed at most once
/// (exactly once unless cancelled through its EventHandle).
using EventFn = std::function<void()>;

namespace detail {
/// Shared control block between a queued event and its EventHandle.
/// The state machine is monotonic: kPending -> kCancelled | kDone.
struct EventCtl {
  static constexpr std::uint8_t kPending = 0;
  static constexpr std::uint8_t kCancelled = 1;
  static constexpr std::uint8_t kDone = 2;
  std::atomic<std::uint8_t> state{kPending};
};
}  // namespace detail

/// Cancellable reference to one scheduled event. Default-constructed handles
/// are inert. Handles may outlive the event (cancel() after execution is a
/// no-op) and may be cancelled from any thread.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from running. Returns true if this call cancelled it
  /// (false: already executed, already cancelled, or inert handle).
  bool cancel() {
    if (!ctl_) return false;
    std::uint8_t expected = detail::EventCtl::kPending;
    return ctl_->state.compare_exchange_strong(
        expected, detail::EventCtl::kCancelled, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  /// Scheduled and neither executed nor cancelled yet.
  [[nodiscard]] bool pending() const {
    return ctl_ && ctl_->state.load(std::memory_order_acquire) ==
                       detail::EventCtl::kPending;
  }

  /// True for handles that refer to a real event (even a finished one).
  explicit operator bool() const { return ctl_ != nullptr; }

 private:
  friend class InlineScheduler;
  explicit EventHandle(std::shared_ptr<detail::EventCtl> ctl)
      : ctl_(std::move(ctl)) {}

  std::shared_ptr<detail::EventCtl> ctl_;
};

/// Abstract simulation scheduler. Components depend on this interface only,
/// never on the backend.
class Scheduler {
 public:
  Scheduler() = default;
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] virtual TimeNs now() const = 0;

  /// Schedule `fn` at absolute simulated time `t` (clamped to now()).
  virtual EventHandle schedule_at(TimeNs t, EventFn fn) = 0;

  /// Schedule `fn` `delay` nanoseconds from now (delay < 0 is clamped to 0).
  EventHandle schedule_after(TimeNs delay, EventFn fn) {
    return schedule_at(now() + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// Run events until simulated time would exceed `t_end`; afterwards
  /// now() == t_end. Events scheduled exactly at t_end are executed.
  virtual void run_until(TimeNs t_end) = 0;

  /// Run until the event queue is empty (use with care: self-rescheduling
  /// periodic events make this unbounded).
  virtual void run_all() = 0;

  /// Consume at most one pending entry; returns false if the queue is empty.
  virtual bool step() = 0;

  /// Events currently queued (cancelled-but-not-yet-surfaced entries count).
  [[nodiscard]] virtual std::size_t pending_events() const = 0;

  /// Total events executed so far (cancelled entries are skipped, not
  /// executed).
  [[nodiscard]] virtual std::uint64_t executed_events() const = 0;

  /// Wall-clock dispatch observer: when set, every executed event's callback
  /// is timed with std::chrono::steady_clock and the elapsed nanoseconds are
  /// reported as the second argument. The first argument is always 0; it is
  /// kept so existing two-argument observers still bind. Purely
  /// observational — it cannot affect event order or simulated time (the
  /// profiler installs one; see prof::Profiler::attach_scheduler). One branch
  /// per event when unset.
  using DispatchObserver =
      std::function<void(std::uint32_t, std::uint64_t wall_ns)>;
  virtual void set_dispatch_observer(DispatchObserver obs) = 0;
};

/// The single-threaded single-queue backend: one binary heap owns simulated
/// time. This is the seed pipeline's scheduler, unchanged in behavior.
class InlineScheduler final : public Scheduler {
 public:
  InlineScheduler() = default;

  [[nodiscard]] TimeNs now() const override { return now_; }
  EventHandle schedule_at(TimeNs t, EventFn fn) override;
  void run_until(TimeNs t_end) override;
  void run_all() override;
  bool step() override;
  [[nodiscard]] std::size_t pending_events() const override {
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t executed_events() const override {
    return executed_;
  }
  void set_dispatch_observer(DispatchObserver obs) override {
    dispatch_observer_ = std::move(obs);
  }

 private:
  struct Entry {
    TimeNs time;
    std::uint64_t seq;
    std::shared_ptr<detail::EventCtl> ctl;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void execute(Entry& e);

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  DispatchObserver dispatch_observer_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

/// Repeatedly invokes a callback with a fixed period until cancelled.
/// The callback may adjust the period for the next firing via set_period().
/// Built on EventHandle cancellation: cancel() (and the destructor) revoke
/// the queued firing itself, so no stale closure ever runs — the old
/// shared-state generation counter is gone.
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
  EventHandle pending_;
};

}  // namespace rpm::sim
