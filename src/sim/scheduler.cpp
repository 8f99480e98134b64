#include "sim/scheduler.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace rpm::sim {

EventHandle Scheduler::schedule_at(TimeNs t, EventFn fn) {
  if (!fn) throw std::invalid_argument("schedule_at: empty callback");
  if (t < now_) t = now_;
  auto ctl = std::make_shared<detail::EventCtl>();
  queue_.push(Entry{t, next_seq_++, ctl, std::move(fn)});
  return EventHandle(std::move(ctl));
}

void Scheduler::execute(Entry& e) {
  now_ = e.time;
  // Claim the event: a concurrently-held EventHandle that already cancelled
  // it wins, and the entry is skipped without running or counting.
  std::uint8_t expected = detail::EventCtl::kPending;
  if (!e.ctl->state.compare_exchange_strong(expected, detail::EventCtl::kDone,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    return;
  }
  ++executed_;
  // Move the callback out before invoking: it may schedule more events,
  // which mutates the queue.
  EventFn fn = std::move(e.fn);
  if (dispatch_observer_) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    dispatch_observer_(0, static_cast<std::uint64_t>(ns));
  } else {
    fn();
  }
}

void Scheduler::run_until(TimeNs t_end) {
  while (!queue_.empty() && queue_.top().time <= t_end) {
    // priority_queue::top() is const; the Entry must be moved out to pop
    // before running so re-entrant scheduling is safe.
    Entry e = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    execute(e);
  }
  if (t_end > now_) now_ = t_end;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  Entry e = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  execute(e);
  return true;
}

PeriodicTask::PeriodicTask(Scheduler& sched, TimeNs period, EventFn fn)
    : sched_(sched), period_(period), fn_(std::move(fn)) {
  if (period_ <= 0) throw std::invalid_argument("PeriodicTask: period <= 0");
  if (!fn_) throw std::invalid_argument("PeriodicTask: empty callback");
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::arm(TimeNs delay) {
  pending_ = sched_.schedule_after(delay, [this] { fire(); });
}

void PeriodicTask::fire() {
  fn_();
  // Re-arm unless the callback cancelled us — or cancelled AND restarted,
  // in which case start() already queued a fresh firing (pending_ refers to
  // it and is still pending; the event this closure belongs to is kDone).
  if (running_ && !pending_.pending()) arm(period_);
}

void PeriodicTask::start(TimeNs first_delay) {
  if (running_) return;
  running_ = true;
  arm(first_delay);
}

void PeriodicTask::cancel() {
  running_ = false;
  pending_.cancel();
}

void PeriodicTask::set_period(TimeNs period) {
  if (period <= 0) throw std::invalid_argument("set_period: period <= 0");
  period_ = period;
}

}  // namespace rpm::sim
