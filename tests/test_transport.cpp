// Unit tests for the control-plane transport: delivery timing, loss/retry/
// backoff, bounded-window backpressure, cancellation, counter invariants,
// RPC correlation, and plane-wide degradation.
#include <algorithm>
#include <any>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "sim/scheduler.h"
#include "transport/transport.h"

namespace rpm::transport {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  /// A lossless, jitter-free config so timing assertions are exact.
  static ChannelConfig lossless() {
    ChannelConfig cfg;
    cfg.base_latency = usec(50);
    cfg.latency_jitter = 0;
    cfg.retry_jitter = 0;
    cfg.loss_prob = 0.0;
    cfg.reorder_prob = 0.0;
    return cfg;
  }

  sim::InlineScheduler sched_;
  ControlPlane cp_{sched_, Rng(42)};
};

TEST_F(TransportTest, DeliversPayloadAtConfiguredLatency) {
  std::vector<TimeNs> delivered_at;
  std::vector<int> bodies;
  Channel& ch = cp_.make_channel(
      "t.basic",
      [&](std::uint64_t, std::any& p) {
        delivered_at.push_back(sched_.now());
        bodies.push_back(std::any_cast<int>(p));
      },
      lossless());

  const std::uint64_t seq = ch.send(std::any(7));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(ch.in_flight(), 1u);

  sched_.run_until(sec(1));
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], usec(50));
  EXPECT_EQ(bodies[0], 7);
  EXPECT_EQ(ch.counters().delivered, 1u);
  EXPECT_EQ(ch.counters().duplicates, 0u);
  EXPECT_EQ(ch.in_flight(), 0u);  // ack came back, window drained
}

TEST_F(TransportTest, JitterStaysWithinBounds) {
  ChannelConfig cfg = lossless();
  cfg.latency_jitter = usec(25);
  std::vector<TimeNs> delivered_at;
  Channel& ch = cp_.make_channel(
      "t.jitter",
      [&](std::uint64_t, std::any&) { delivered_at.push_back(sched_.now()); },
      cfg);

  for (int i = 0; i < 100; ++i) ch.send(std::any(i));
  sched_.run_until(sec(1));

  ASSERT_EQ(delivered_at.size(), 100u);
  for (TimeNs t : delivered_at) {
    EXPECT_GE(t, cfg.base_latency);
    EXPECT_LE(t, cfg.base_latency + cfg.latency_jitter);
  }
}

TEST_F(TransportTest, TotalLossExpiresAfterBackoffSchedule) {
  ChannelConfig cfg = lossless();
  cfg.loss_prob = 1.0;
  cfg.max_attempts = 3;
  cfg.retry_timeout = msec(10);
  cfg.retry_backoff = 2.0;

  int deliveries = 0;
  std::vector<std::uint64_t> expired;
  Channel& ch = cp_.make_channel(
      "t.blackhole", [&](std::uint64_t, std::any&) { ++deliveries; }, cfg);
  ch.set_on_expire([&](std::uint64_t seq, std::any&) {
    expired.push_back(seq);
    EXPECT_EQ(sched_.now(), msec(70));  // 10 + 20 + 40 (backoff x2 each)
  });

  ch.send(std::any(std::string("doomed")));
  sched_.run_until(sec(5));

  EXPECT_EQ(deliveries, 0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
  const auto& c = ch.counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.lost, 3u);     // one per attempt
  EXPECT_EQ(c.retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST_F(TransportTest, BackoffIsCappedAtMaxRetryTimeout) {
  ChannelConfig cfg = lossless();
  cfg.loss_prob = 1.0;
  cfg.max_attempts = 4;
  cfg.retry_timeout = msec(10);
  cfg.retry_backoff = 10.0;
  cfg.max_retry_timeout = msec(20);

  TimeNs expired_at = -1;
  Channel& ch =
      cp_.make_channel("t.cap", [](std::uint64_t, std::any&) {}, cfg);
  ch.set_on_expire(
      [&](std::uint64_t, std::any&) { expired_at = sched_.now(); });

  ch.send(std::any(0));
  sched_.run_until(sec(5));
  // Timers: 10, then capped at 20, 20, 20 -> expiry at 70ms, not 10+100+...
  EXPECT_EQ(expired_at, msec(70));
}

TEST_F(TransportTest, RetryExhaustionUnderTotalLossWithJitterAndCap) {
  // The edge the two tests above leave open: jitter + backoff cap + attempt
  // cap together. Under 100% loss every retransmit timer must stay within
  // [capped backoff, capped backoff + retry_jitter], the message must stop
  // at max_attempts (not retry forever), and exactly one `expired` is
  // counted with the payload handed back through on_expire.
  ChannelConfig cfg = lossless();
  cfg.loss_prob = 1.0;
  cfg.max_attempts = 5;
  cfg.retry_timeout = msec(10);
  cfg.retry_backoff = 3.0;
  cfg.max_retry_timeout = msec(25);
  cfg.retry_jitter = msec(2);

  TimeNs expired_at = -1;
  std::string expired_body;
  Channel& ch = cp_.make_channel(
      "t.exhaust", [](std::uint64_t, std::any&) { FAIL(); }, cfg);
  ch.set_on_expire([&](std::uint64_t, std::any& p) {
    expired_at = sched_.now();
    expired_body = std::any_cast<std::string>(p);
  });

  ch.send(std::any(std::string("exhausted")));
  sched_.run_until(sec(10));

  // One timer per attempt (the last declares expiry): 10 ms, then
  // 30/90/270/810 ms all capped at 25 ms, each + [0, 2] ms of jitter ->
  // expiry in [110, 120] ms. No timer may exceed cap + jitter.
  EXPECT_GE(expired_at, msec(110));
  EXPECT_LE(expired_at, msec(110) + 5 * cfg.retry_jitter);
  EXPECT_EQ(expired_body, "exhausted");
  const auto& c = ch.counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.lost, 5u);     // one transmission per attempt, all eaten
  EXPECT_EQ(c.retries, 4u);  // attempts 2..5
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(ch.in_flight(), 0u);  // nothing left armed after give-up
}

TEST_F(TransportTest, FullWindowDropsOldestMessage) {
  ChannelConfig cfg = lossless();
  cfg.max_in_flight = 2;

  std::vector<int> bodies;
  std::vector<std::uint64_t> expired;
  Channel& ch = cp_.make_channel(
      "t.window",
      [&](std::uint64_t, std::any& p) {
        bodies.push_back(std::any_cast<int>(p));
      },
      cfg);
  ch.set_on_expire(
      [&](std::uint64_t seq, std::any&) { expired.push_back(seq); });

  ch.send(std::any(1));
  ch.send(std::any(2));
  ch.send(std::any(3));  // evicts seq 1 (latest-wins backpressure)
  EXPECT_EQ(ch.in_flight(), 2u);

  sched_.run_until(sec(1));
  EXPECT_EQ(bodies, (std::vector<int>{2, 3}));
  EXPECT_EQ(expired, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(ch.counters().dropped, 1u);
  EXPECT_EQ(ch.counters().delivered, 2u);
}

TEST_F(TransportTest, CancelUnackedStopsDeliveryAndCountsDrops) {
  int deliveries = 0;
  Channel& ch = cp_.make_channel(
      "t.cancel", [&](std::uint64_t, std::any&) { ++deliveries; }, lossless());

  for (int i = 0; i < 5; ++i) ch.send(std::any(i));
  ch.cancel_unacked();
  EXPECT_EQ(ch.in_flight(), 0u);

  sched_.run_until(sec(1));
  EXPECT_EQ(deliveries, 0);  // queued delivery events became no-ops
  EXPECT_EQ(ch.counters().dropped, 5u);
  EXPECT_EQ(ch.counters().delivered, 0u);
}

TEST_F(TransportTest, NoteAppDropOnlyBumpsTheDropCounter) {
  Channel& ch =
      cp_.make_channel("t.appdrop", [](std::uint64_t, std::any&) {}, lossless());
  ch.note_app_drop(3);
  EXPECT_EQ(ch.counters().dropped, 3u);
  EXPECT_EQ(ch.counters().sent, 0u);
}

TEST_F(TransportTest, LossyChannelCountersStayConsistent) {
  ChannelConfig cfg = lossless();
  cfg.loss_prob = 0.3;
  cfg.latency_jitter = usec(25);
  cfg.retry_timeout = msec(5);
  cfg.max_in_flight = 4096;  // no backpressure in this test

  int handler_runs = 0;
  Channel& ch = cp_.make_channel(
      "t.lossy", [&](std::uint64_t, std::any&) { ++handler_runs; }, cfg);

  constexpr int kMsgs = 300;
  for (int i = 0; i < kMsgs; ++i) ch.send(std::any(i));
  sched_.run_until(sec(30));

  const auto& c = ch.counters();
  EXPECT_EQ(c.sent, kMsgs);
  // Every message either reached the handler once or exhausted its retries.
  EXPECT_EQ(c.delivered + c.expired, c.sent);
  // 30% loss over 6 attempts: virtually everything gets through, with
  // visible retry/duplicate traffic.
  EXPECT_GT(c.delivered, static_cast<std::uint64_t>(0.95 * kMsgs));
  EXPECT_GT(c.retries, 0u);
  EXPECT_GT(c.lost, 0u);
  // The handler runs once per delivery, duplicates included.
  EXPECT_EQ(static_cast<std::uint64_t>(handler_runs),
            c.delivered + c.duplicates);
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST_F(TransportTest, RpcRoundTripReturnsServerResult) {
  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.rpc",
      [](const std::any& req) {
        return std::any(std::any_cast<int>(req) * 2);
      },
      lossless());

  int result = 0;
  int fired = 0;
  rpc.call(std::any(21), [&](std::any& rsp) {
    ++fired;
    result = std::any_cast<int>(rsp);
  });
  EXPECT_EQ(rpc.pending_calls(), 1u);

  sched_.run_until(sec(1));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(result, 42);
  EXPECT_EQ(rpc.pending_calls(), 0u);
}

TEST_F(TransportTest, RpcFiresEachCompletionOnceDespiteLossAndRetries) {
  ChannelConfig cfg = lossless();
  cfg.loss_prob = 0.4;
  cfg.retry_timeout = msec(5);
  cfg.max_in_flight = 4096;

  int server_runs = 0;
  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.rpc_lossy",
      [&](const std::any& req) {
        ++server_runs;
        return std::any(std::any_cast<int>(req) + 1);
      },
      cfg);

  constexpr int kCalls = 100;
  std::vector<int> completions(kCalls, 0);
  for (int i = 0; i < kCalls; ++i) {
    rpc.call(std::any(i), [&completions, i](std::any& rsp) {
      ++completions[i];
      EXPECT_EQ(std::any_cast<int>(rsp), i + 1);
    });
  }
  sched_.run_until(sec(30));

  int done = 0;
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_LE(completions[i], 1) << "call " << i << " completed twice";
    done += completions[i];
  }
  // 40% loss: a few calls may expire end-to-end, most complete exactly once.
  EXPECT_GT(done, kCalls * 8 / 10);
  // Retried deliveries re-ran the (idempotent) server.
  EXPECT_GT(server_runs, done);
  // Anything not completed was pruned when its request expired.
  EXPECT_EQ(rpc.pending_calls(), static_cast<std::size_t>(kCalls - done));
}

TEST_F(TransportTest, RpcCancelPendingDropsCompletions) {
  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.rpc_cancel", [](const std::any&) { return std::any(0); }, lossless());

  int fired = 0;
  rpc.call(std::any(1), [&](std::any&) { ++fired; });
  rpc.cancel_pending();
  sched_.run_until(sec(1));

  EXPECT_EQ(fired, 0);
  EXPECT_EQ(rpc.pending_calls(), 0u);
}

TEST_F(TransportTest, DegradationAddsLatencyAndLossPlaneWide) {
  std::vector<TimeNs> delivered_at;
  Channel& ch = cp_.make_channel(
      "t.degraded",
      [&](std::uint64_t, std::any&) { delivered_at.push_back(sched_.now()); },
      lossless());

  cp_.set_degradation(msec(1), 0.0);
  ch.send(std::any(0));
  sched_.run_until(sec(1));
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], msec(1) + usec(50));

  // Total extra loss: nothing gets through; the message expires instead.
  cp_.set_degradation(0, 1.0);
  ch.send(std::any(1));
  sched_.run_until(sec(30));
  EXPECT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(ch.counters().expired, 1u);

  // Clearing restores the configured behaviour.
  cp_.clear_degradation();
  ch.send(std::any(2));
  const TimeNs sent_at = sched_.now();
  sched_.run_until(sched_.now() + sec(1));
  ASSERT_EQ(delivered_at.size(), 2u);
  EXPECT_EQ(delivered_at[1], sent_at + usec(50));
}

TEST_F(TransportTest, RetryJitterAvoidsThunderingHerd) {
  // Eight channels lose their first transmission at the same tick. With
  // retry_jitter on, each channel's own seeded Rng spreads the retransmit
  // timers: the second attempts must NOT all land on the same tick (the
  // thundering herd that would re-bury a Controller recovering from a
  // crash), yet every one stays inside [retry_timeout, retry_timeout +
  // retry_jitter].
  constexpr int kChannels = 8;
  ChannelConfig cfg = lossless();
  cfg.loss_prob = 1.0;
  cfg.retry_jitter = msec(5);
  std::vector<TimeNs> second_attempt_at;
  for (int i = 0; i < kChannels; ++i) {
    Channel& ch = cp_.make_channel("t.herd" + std::to_string(i),
                                   [](std::uint64_t, std::any&) {}, cfg);
    ch.set_on_attempt([&](std::uint64_t, std::uint32_t attempt) {
      if (attempt == 2) second_attempt_at.push_back(sched_.now());
    });
    ch.send(std::any(i));
  }
  sched_.run_until(sec(5));

  ASSERT_EQ(second_attempt_at.size(), static_cast<std::size_t>(kChannels));
  for (TimeNs t : second_attempt_at) {
    EXPECT_GE(t, cfg.retry_timeout);
    EXPECT_LE(t, cfg.retry_timeout + cfg.retry_jitter);
  }
  std::sort(second_attempt_at.begin(), second_attempt_at.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(second_attempt_at.begin(), second_attempt_at.end()) -
      second_attempt_at.begin());
  EXPECT_GE(distinct, 2u) << "all " << kChannels
                          << " channels retried on the same tick";
}

TEST_F(TransportTest, PeerDownDropsTrafficAndBumpsEpochOnRecovery) {
  std::size_t delivered = 0;
  Channel& ch = cp_.make_channel(
      "t.down", [&](std::uint64_t, std::any&) { ++delivered; }, lossless());
  EXPECT_FALSE(ch.peer_down());
  EXPECT_EQ(ch.peer_epoch(), 1u);

  // In flight when the peer dies: counted lost, never delivered.
  ch.send(std::any(1));
  ch.set_peer_down(true);
  sched_.run_until(sec(1));
  EXPECT_EQ(delivered, 0u);

  // Fresh sends against a dead peer burn their attempts and expire.
  ch.send(std::any(2));
  sched_.run_until(sec(5));
  EXPECT_EQ(delivered, 0u);
  EXPECT_GE(ch.counters().expired, 1u);
  EXPECT_GT(ch.counters().lost, 0u);

  // Recovery: epoch bumps (stale-response guard) and delivery resumes.
  ch.set_peer_down(false);
  EXPECT_EQ(ch.peer_epoch(), 2u);
  ch.send(std::any(3));
  sched_.run_until(sched_.now() + sec(1));
  EXPECT_EQ(delivered, 1u);
  EXPECT_FALSE(ch.peer_down());
}

TEST_F(TransportTest, ControlPlaneCountsItsChannels) {
  EXPECT_EQ(cp_.num_channels(), 0u);
  cp_.make_channel("t.a", nullptr);
  cp_.make_rpc_channel("t.b", [](const std::any&) { return std::any(); });
  EXPECT_EQ(cp_.num_channels(), 3u);  // one plain + req/rsp pair
}

}  // namespace
}  // namespace rpm::transport
