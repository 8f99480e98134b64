// Unit tests for the discrete-event scheduler and device clocks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "sim/scheduler.h"

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
  EXPECT_THROW(s.schedule_at(0, {}), std::invalid_argument);
}

TEST(Scheduler, CountsExecutedEvents) {
  InlineScheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_after(i, [] {});
  s.run_all();
  EXPECT_EQ(s.executed_events(), 7u);
}

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

TEST(EventHandle, CancelPreventsExecution) {
  InlineScheduler s;
  int fired = 0;
  EventHandle h = s.schedule_at(usec(10), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  s.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(h.pending());
  // Cancel is idempotent but only the first call wins.
  EXPECT_FALSE(h.cancel());
}

TEST(EventHandle, LifecycleAndDefaultHandle) {
  InlineScheduler s;
  EventHandle none;
  EXPECT_FALSE(none);
  EXPECT_FALSE(none.pending());
  EXPECT_FALSE(none.cancel());

  int fired = 0;
  EventHandle h = s.schedule_after(usec(5), [&] { ++fired; });
  EXPECT_TRUE(static_cast<bool>(h));
  EXPECT_TRUE(h.pending());
  s.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  // Too late to cancel an event that already ran.
  EXPECT_FALSE(h.cancel());
}

TEST(EventHandle, CancelledEventsAreNotCountedExecuted) {
  InlineScheduler s;
  std::vector<std::uint32_t> observed;
  s.set_dispatch_observer([&observed](std::uint32_t first, std::uint64_t) {
    observed.push_back(first);
  });
  s.schedule_at(usec(1), [] {});
  EventHandle h = s.schedule_at(usec(2), [] {});
  h.cancel();
  // A queued-but-cancelled entry still counts as pending until popped.
  EXPECT_EQ(s.pending_events(), 2u);
  s.run_all();
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
