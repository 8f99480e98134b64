// Unit tests for the discrete-event scheduler and device clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "sim/clock.h"
#include "sim/scheduler.h"

// Global allocation counter: every form of operator new in this test binary
// is replaced (so none mixes with another allocator's delete), and counts
// while `g_count_allocations` is set.
namespace {
bool g_count_allocations = false;
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t n, std::size_t align = 0) noexcept {
  if (g_count_allocations) ++g_allocations;
  if (n == 0) n = 1;
  return align <= alignof(std::max_align_t)
             ? std::malloc(n)
             : std::aligned_alloc(align, (n + align - 1) / align * align);
}
void* counted_alloc_or_throw(std::size_t n, std::size_t align = 0) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

using std::align_val_t;
using std::nothrow_t;
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept {
  std::free(p);
}

namespace rpm::sim {
namespace {

TEST(Scheduler, RunsEventsInTimestampOrder) {
  InlineScheduler s;
  std::vector<int> order;
  s.schedule_at(usec(30), [&] { order.push_back(3); });
  s.schedule_at(usec(10), [&] { order.push_back(1); });
  s.schedule_at(usec(20), [&] { order.push_back(2); });
  s.run_until(usec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), usec(100));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  InlineScheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(usec(10), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  // Ties scheduled from inside a dispatched event run after the entries
  // queued at that timestamp earlier, in the order they were scheduled.
  order.clear();
  for (int src : {10, 20}) {
    s.schedule_at(usec(20), [&s, &order, src] {
      s.schedule_at(usec(30), [&order, src] { order.push_back(src + 1); });
      s.schedule_at(usec(30), [&order, src] { order.push_back(src + 2); });
    });
  }
  s.schedule_at(usec(30), [&order] { order.push_back(0); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 11, 12, 21, 22}));
}

TEST(Scheduler, PastTimesClampToNow) {
  InlineScheduler s;
  s.run_until(usec(50));
  bool ran = false;
  s.schedule_at(usec(10), [&] {
    ran = true;
    EXPECT_EQ(s.now(), usec(50));
  });
  s.run_until(usec(50));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, ScheduleAfterNegativeDelayClamps) {
  InlineScheduler s;
  s.run_until(usec(5));
  bool ran = false;
  s.schedule_after(-100, [&] { ran = true; });
  s.run_until(usec(5));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  InlineScheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) s.schedule_after(usec(1), recurse);
  };
  s.schedule_after(0, recurse);
  s.run_until(msec(1));
  EXPECT_EQ(depth, 10);
}

TEST(Scheduler, RunUntilDoesNotRunLaterEvents) {
  InlineScheduler s;
  bool ran = false;
  s.schedule_at(usec(100), [&] { ran = true; });
  s.run_until(usec(99));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(usec(100));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, EventAtExactBoundaryRuns) {
  InlineScheduler s;
  bool ran = false;
  s.schedule_at(usec(100), [&] { ran = true; });
  s.run_until(usec(100));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RejectsEmptyCallback) {
  InlineScheduler s;
  EXPECT_THROW(s.schedule_at(0, EventFn{}), std::invalid_argument);
  void (*none)() = nullptr;
  EXPECT_THROW(s.schedule_after(0, none), std::invalid_argument);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, CountsExecutedEvents) {
  InlineScheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_after(i, [] {});
  s.run_all();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(Scheduler, DispatchOrderIsStableSortedByTime) {
  // 100k events at random times with ~50 ties per timestamp, scheduled in
  // random order: they run in (time, insertion) order.
  constexpr std::size_t kEvents = 100'000;
  Rng rng(20240817);
  std::vector<TimeNs> at(kEvents);
  for (TimeNs& t : at) t = rng.uniform_int(0, 2'000);
  InlineScheduler s;
  std::vector<std::uint32_t> ran;
  ran.reserve(kEvents);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    s.schedule_at(at[i], [&ran, i] { ran.push_back(i); });
  }
  s.run_all();
  std::vector<std::uint32_t> want(kEvents);
  std::iota(want.begin(), want.end(), 0u);
  std::stable_sort(want.begin(), want.end(),
                   [&at](std::uint32_t a, std::uint32_t b) {
                     return at[a] < at[b];
                   });
  EXPECT_EQ(ran, want);
  EXPECT_EQ(s.executed_events(), kEvents);
}

TEST(Scheduler, SteadyStateSchedulingAllocatesNothing) {
  InlineScheduler s;
  std::uint64_t sum = 0;
  const std::array<unsigned char, 82> pad{1};
  const auto event = [&sum, pad] { sum += pad[0]; };
  static_assert(sizeof(event) >= 90);
  static_assert(sizeof(event) <= Scheduler::kInlineBytes);
  const auto round = [&s, &event] {
    for (int i = 0; i < 10'000; ++i) s.schedule_after(i % 97, event);
    s.run_all();
  };
  round();  // warm-up: the slab and the heap grow to 10,000 events
  g_allocations = 0;
  g_count_allocations = true;
  round();
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(sum, 20'000u);
}

TEST(Scheduler, OversizedCaptureRunsOnceAndIsDestroyedOnce) {
  struct Big {
    int* live;
    std::array<char, 2 * Scheduler::kInlineBytes> pad{};
    explicit Big(int* l) : live(l) { ++*live; }
    Big(const Big& o) : live(o.live), pad(o.pad) { ++*live; }
    ~Big() { --*live; }
  };
  int runs = 0;
  int live = 0;
  InlineScheduler s;
  {
    const Big big(&live);
    const auto event = [&runs, big] { ++runs; };
    static_assert(sizeof(event) > Scheduler::kInlineBytes);
    s.schedule_at(usec(1), event);
  }
  EXPECT_EQ(live, 1);  // the one copy in the queue
  s.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(live, 0);
}

TEST(Scheduler, DestructionReleasesEveryQueuedCapture) {
  auto owner = std::make_shared<int>(0);
  {
    InlineScheduler s;
    s.schedule_at(usec(1), [owner] {});
    const std::array<char, 2 * Scheduler::kInlineBytes> big{};
    s.schedule_at(usec(2), [owner, big] {});
    PeriodicTask t(s, msec(1), [owner] {});
    t.start();
    s.run_until(msec(2));  // the one-shots ran; a firing is queued
    for (int i = 0; i < 5; ++i) s.schedule_at(sec(1), [owner] {});
    s.schedule_at(sec(1), [owner, big] {});
    EXPECT_EQ(owner.use_count(), 8);  // 6 queued + the task's callback
  }
  EXPECT_EQ(owner.use_count(), 1);
}

TEST(Scheduler, ThrowingCallbackReleasesItsCaptures) {
  InlineScheduler s;
  auto owner = std::make_shared<int>(0);
  std::vector<int> order;
  s.schedule_at(usec(1), [owner] { throw std::logic_error("step failed"); });
  s.schedule_at(usec(2), [&order] { order.push_back(2); });
  s.schedule_at(usec(3), [&order] { order.push_back(3); });
  EXPECT_EQ(owner.use_count(), 2);
  EXPECT_THROW(s.run_until(usec(10)), std::logic_error);
  EXPECT_EQ(owner.use_count(), 1);
  EXPECT_EQ(s.now(), usec(1));
  EXPECT_EQ(s.pending_events(), 2u);
  // The freed slot is recycled and later events still run in order.
  s.schedule_at(usec(2), [&order] { order.push_back(4); });
  s.run_until(usec(10));
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3}));
  EXPECT_EQ(s.executed_events(), 4u);
}

TEST(Scheduler, SlabGrowthKeepsARunningCallbacksCaptures) {
  // The running callback lives in a slot; scheduling three chunks' worth of
  // events grows the slab under it, and its captures must stay put.
  InlineScheduler s;
  std::array<std::uint64_t, 6> words{};  // the whole capture fits inline
  std::iota(words.begin(), words.end(), 0x5eed0000u);
  const auto owner = std::make_shared<int>(0);
  int ran = 0;
  bool intact = false;
  const auto event = [&s, &ran, &intact, words, owner] {
    const std::uint64_t* before = words.data();
    for (std::uint32_t i = 0; i < 3 * Scheduler::kChunkSlots; ++i) {
      s.schedule_at(1, [&ran] { ++ran; });
    }
    std::array<std::uint64_t, 6> want{};
    std::iota(want.begin(), want.end(), 0x5eed0000u);
    intact = words == want && words.data() == before && owner.use_count() == 3;
  };
  static_assert(sizeof(event) <= Scheduler::kInlineBytes);
  s.schedule_at(0, event);
  s.run_all();
  EXPECT_TRUE(intact);
  EXPECT_EQ(ran, static_cast<int>(3 * Scheduler::kChunkSlots));
  EXPECT_EQ(owner.use_count(), 2);  // `owner` and `event`'s copy
}

#if defined(__SANITIZE_ADDRESS__)
TEST(SchedulerDeathTest, AsanSeesAUseOfAFreedSlot) {
  // A freed slot's storage is poisoned, so reading a capture after its
  // event ran is reported even though the slab memory stays allocated.
  EXPECT_DEATH(
      {
        InlineScheduler s;
        const volatile long* seen = nullptr;
        const long word = 42;
        s.schedule_at(1, [&seen, word] { seen = &word; });
        s.run_all();
        std::fprintf(stderr, "%ld\n", *seen);
      },
      "use-after-poison");
}
#endif

TEST(PeriodicTask, FiresAtFixedPeriod) {
  InlineScheduler s;
  std::vector<TimeNs> fires;
  PeriodicTask t(s, msec(10), [&] { fires.push_back(s.now()); });
  t.start();
  s.run_until(msec(35));
  ASSERT_EQ(fires.size(), 4u);  // t=0, 10, 20, 30 ms
  EXPECT_EQ(fires[0], 0);
  EXPECT_EQ(fires[3], msec(30));
}

TEST(PeriodicTask, FirstDelayHonoured) {
  InlineScheduler s;
  std::vector<TimeNs> fires;
  PeriodicTask t(s, msec(10), [&] { fires.push_back(s.now()); });
  t.start(msec(5));
  s.run_until(msec(26));
  ASSERT_EQ(fires.size(), 3u);  // 5, 15, 25
  EXPECT_EQ(fires[0], msec(5));
}

TEST(PeriodicTask, CancelStopsFiring) {
  InlineScheduler s;
  int count = 0;
  PeriodicTask t(s, msec(1), [&] { ++count; });
  t.start();
  s.run_until(msec(3));
  t.cancel();
  s.run_until(msec(10));
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTask, CallbackMayCancelItself) {
  InlineScheduler s;
  int count = 0;
  PeriodicTask t(s, msec(1), [&] {
    if (++count == 2) t.cancel();
  });
  t.start();
  s.run_until(msec(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, SafeToDestroyWithEventInFlight) {
  InlineScheduler s;
  int count = 0;
  {
    PeriodicTask t(s, msec(1), [&] { ++count; });
    t.start();
    s.run_until(msec(2));
  }  // destroyed with the next firing still queued
  s.run_until(msec(10));
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, SetPeriodAppliesFromNextRearm) {
  // The firing already queued when set_period is called keeps its old delay;
  // subsequent firings use the new period.
  InlineScheduler s;
  std::vector<TimeNs> fires;
  PeriodicTask t(s, msec(10), [&] { fires.push_back(s.now()); });
  t.start();
  s.run_until(msec(10));  // fires at 0 and 10; next already queued for 20
  t.set_period(msec(20));
  s.run_until(msec(50));  // fires at 20 (old delay), then 40
  ASSERT_EQ(fires.size(), 4u);
  EXPECT_EQ(fires[2], msec(20));
  EXPECT_EQ(fires[3], msec(40));
}

TEST(PeriodicTask, SetPeriodFromWithinCallbackAppliesToNextRearm) {
  // An Agent retunes its probe cadence from inside the probing callback
  // (pinglist refresh); the re-arm after the callback must read the new
  // period, not the one captured when the firing was queued.
  InlineScheduler s;
  std::vector<TimeNs> fires;
  PeriodicTask t(s, msec(10), [&] {
    fires.push_back(s.now());
    if (fires.size() == 2) t.set_period(msec(3));
  });
  t.start();
  s.run_until(msec(20));
  // 0, 10 (changes period), 13, 16, 19.
  ASSERT_EQ(fires.size(), 5u);
  EXPECT_EQ(fires[2], msec(13));
  EXPECT_EQ(fires[4], msec(19));
  EXPECT_EQ(t.period(), msec(3));
}

TEST(PeriodicTask, CancelWhileQueuedThenRestartDropsStaleFiring) {
  // cancel() with a firing already queued, then start() again before the
  // stale event's timestamp: the generation guard must swallow the stale
  // event or the task would fire on both the old and the new cadence.
  InlineScheduler s;
  std::vector<TimeNs> fires;
  PeriodicTask t(s, msec(10), [&] { fires.push_back(s.now()); });
  t.start();
  s.run_until(msec(10));  // fired at 0 and 10; next queued for 20
  t.cancel();
  t.start(msec(5));  // new cadence: 15, 25, 35...
  s.run_until(msec(30));
  ASSERT_EQ(fires.size(), 4u);
  EXPECT_EQ(fires[2], msec(15));  // NOT the stale t=20 event
  EXPECT_EQ(fires[3], msec(25));
  EXPECT_TRUE(t.running());
}

TEST(PeriodicTask, RejectsBadArguments) {
  InlineScheduler s;
  EXPECT_THROW(PeriodicTask(s, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicTask(s, msec(1), {}), std::invalid_argument);
  PeriodicTask ok(s, msec(1), [] {});
  EXPECT_THROW(ok.set_period(-1), std::invalid_argument);
}

TEST(PeriodicTask, CancelledFiringStaysQueuedButNeverRuns) {
  InlineScheduler s;
  std::vector<std::uint32_t> observed;
  s.set_dispatch_observer([&observed](std::uint32_t first, std::uint64_t) {
    observed.push_back(first);
  });
  int fired = 0;
  PeriodicTask t(s, msec(1), [&] { ++fired; });
  s.schedule_at(usec(1), [] {});
  t.start(usec(2));
  t.cancel();
  // A queued-but-cancelled firing still counts as pending until popped.
  EXPECT_EQ(s.pending_events(), 2u);
  s.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.executed_events(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
  // The observer sees the executed event only, with first argument 0.
  EXPECT_EQ(observed, (std::vector<std::uint32_t>{0u}));
  // Clearing the observer stops the calls.
  s.set_dispatch_observer(nullptr);
  s.schedule_after(0, [] {});
  s.run_all();
  EXPECT_EQ(observed.size(), 1u);
}

TEST(PeriodicTask, StaleCancelDoesNotHitARecycledSlot) {
  InlineScheduler s;
  // A firing that cancels its own task: once it has run, its slot is freed
  // while the task still names it.
  int ticks = 0;
  PeriodicTask self_stop(s, msec(1), [&] {
    ++ticks;
    self_stop.cancel();
  });
  self_stop.start();
  s.run_until(msec(5));
  EXPECT_EQ(ticks, 1);
  bool ran = false;
  s.schedule_after(msec(1), [&ran] { ran = true; });  // reuses the slot
  self_stop.cancel();
  s.run_until(msec(10));
  EXPECT_TRUE(ran);

  // A firing cancelled while queued: its slot is freed when it surfaces.
  PeriodicTask t(s, msec(1), [] {});
  t.start(msec(1));
  t.cancel();
  s.run_until(msec(20));
  ran = false;
  s.schedule_after(msec(1), [&ran] { ran = true; });
  t.cancel();
  s.run_until(msec(30));
  EXPECT_TRUE(ran);
  EXPECT_EQ(ticks, 1);
}

TEST(DeviceClock, AppliesOffset) {
  DeviceClock c(msec(5), 0.0);
  EXPECT_EQ(c.read(0), msec(5));
  EXPECT_EQ(c.read(sec(1)), sec(1) + msec(5));
}

TEST(DeviceClock, AppliesDrift) {
  DeviceClock c(0, 100.0);  // 100 ppm fast
  EXPECT_EQ(c.read(sec(1)), sec(1) + usec(100));
}

TEST(DeviceClock, SameClockDifferencesCancelOffset) {
  // The invariant R-Pingmesh relies on: durations measured on one clock are
  // accurate regardless of its offset.
  DeviceClock c(-sec(1), 0.0);
  const TimeNs a = c.read(usec(10));
  const TimeNs b = c.read(usec(35));
  EXPECT_EQ(b - a, usec(25));
}

TEST(DeviceClock, DriftErrorNegligibleOverMicroseconds) {
  DeviceClock c(0, 50.0);  // worst-case drift used by the simulator
  const TimeNs span = usec(100);
  const TimeNs measured = c.read(sec(10) + span) - c.read(sec(10));
  // 50 ppm over 100 us = 5 ns error.
  EXPECT_NEAR(static_cast<double>(measured - span), 0.0, 6.0);
}

TEST(DeviceClock, RandomClocksDiffer) {
  Rng rng(42);
  DeviceClock a = DeviceClock::random(rng);
  DeviceClock b = DeviceClock::random(rng);
  EXPECT_NE(a.read(0), b.read(0));
}

}  // namespace
}  // namespace rpm::sim
