#include "sim/scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define RPM_SLOT_POISON(s) \
  ASAN_POISON_MEMORY_REGION((s).storage, sizeof((s).storage))
#define RPM_SLOT_UNPOISON(s) \
  ASAN_UNPOISON_MEMORY_REGION((s).storage, sizeof((s).storage))
#else
#define RPM_SLOT_POISON(s) static_cast<void>(s)
#define RPM_SLOT_UNPOISON(s) static_cast<void>(s)
#endif

namespace rpm::sim {

namespace {
constexpr std::size_t kArity = 4;

bool before(TimeNs at, std::uint64_t aseq, TimeNs bt, std::uint64_t bseq) {
  return at != bt ? at < bt : aseq < bseq;
}
}  // namespace

Scheduler::~Scheduler() {
  for (const Key& k : heap_) {
    Slot& s = slot(k.slot);
    if (s.ops != nullptr) s.ops->destroy(s.storage);
  }
  for (auto& chunk : chunks_) {
    for (std::uint32_t j = 0; j < kChunkSlots; ++j) RPM_SLOT_UNPOISON(chunk[j]);
  }
}

std::uint32_t Scheduler::acquire() {
  if (free_head_ == kNoSlot) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    heap_.reserve(base + kChunkSlots);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    Slot* chunk = chunks_.back().get();
    for (std::uint32_t j = kChunkSlots; j-- > 0;) {
      chunk[j].next_free = free_head_;
      free_head_ = base + j;
      RPM_SLOT_POISON(chunk[j]);
    }
  }
  const std::uint32_t i = free_head_;
  Slot& s = slot(i);
  free_head_ = s.next_free;
  RPM_SLOT_UNPOISON(s);
  return i;
}

void Scheduler::release(std::uint32_t i) noexcept {
  Slot& s = slot(i);
  if (s.ops != nullptr) {
    s.ops->destroy(s.storage);
    s.ops = nullptr;
  }
  RPM_SLOT_POISON(s);
  s.next_free = free_head_;
  free_head_ = i;
}

void Scheduler::push(TimeNs t, std::uint32_t i) noexcept {
  const Key k{t, next_seq_++, i};
  std::size_t pos = heap_.size();
  heap_.push_back(k);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    const Key& p = heap_[parent];
    if (!before(k.time, k.seq, p.time, p.seq)) break;
    heap_[pos] = p;
    pos = parent;
  }
  heap_[pos] = k;
}

Scheduler::Key Scheduler::pop() noexcept {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c].time, heap_[c].seq, heap_[best].time,
                 heap_[best].seq)) {
        best = c;
      }
    }
    if (!before(heap_[best].time, heap_[best].seq, last.time, last.seq)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

void Scheduler::dispatch(const Key& k) {
  now_ = k.time;
  // Frees the slot however the callback exits, a throw included.
  struct Release {
    Scheduler& self;
    std::uint32_t i;
    ~Release() { self.release(i); }
  } guard{*this, k.slot};
  Slot& s = slot(k.slot);
  if (s.ops == nullptr) return;  // cancelled: skipped, not run or counted
  ++s.gen;                       // no longer pending: its token is stale
  ++executed_;
  if (!dispatch_observer_) {
    s.ops->invoke(s.storage);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  s.ops->invoke(s.storage);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  dispatch_observer_(0, static_cast<std::uint64_t>(ns));
}

void Scheduler::run_until(TimeNs t_end) {
  while (!heap_.empty() && heap_.front().time <= t_end) dispatch(pop());
  if (t_end > now_) now_ = t_end;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  dispatch(pop());
  return true;
}

bool Scheduler::pending(Token tok) const {
  return tok.slot != kNoSlot && slot(tok.slot).gen == tok.gen;
}

void Scheduler::cancel(Token tok) noexcept {
  if (!pending(tok)) return;
  // The key stays queued until it surfaces; only the callable goes now.
  Slot& s = slot(tok.slot);
  ++s.gen;
  s.ops->destroy(s.storage);
  s.ops = nullptr;
  RPM_SLOT_POISON(s);
}

PeriodicTask::PeriodicTask(Scheduler& sched, TimeNs period, EventFn fn)
    : sched_(sched), period_(period), fn_(std::move(fn)) {
  if (period_ <= 0) throw std::invalid_argument("PeriodicTask: period <= 0");
  if (!fn_) throw std::invalid_argument("PeriodicTask: empty callback");
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::arm(TimeNs delay) {
  pending_ = sched_.enqueue(sched_.now() + (delay > 0 ? delay : 0),
                            [this] { fire(); });
}

void PeriodicTask::fire() {
  fn_();
  // Re-arm unless the callback cancelled us — or cancelled AND restarted,
  // in which case start() already queued a fresh firing (pending_ names it;
  // the firing running now stopped being pending when it started).
  if (running_ && !sched_.pending(pending_)) arm(period_);
}

void PeriodicTask::start(TimeNs first_delay) {
  if (running_) return;
  running_ = true;
  arm(first_delay);
}

void PeriodicTask::cancel() {
  running_ = false;
  sched_.cancel(pending_);
}

void PeriodicTask::set_period(TimeNs period) {
  if (period <= 0) throw std::invalid_argument("set_period: period <= 0");
  period_ = period;
}

}  // namespace rpm::sim
