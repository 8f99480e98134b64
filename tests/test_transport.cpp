// Unit tests for the control-plane transport: delivery timing, loss/retry/
// backoff, the delivery contract (streams retry until acked, RPC legs expire
// after kRpcMaxAttempts), bounded-window backpressure, cancellation, counter
// invariants, RPC correlation, and plane-wide degradation.
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
  /// A jitter-free config so timing assertions are exact. Loss comes from
  /// the plane's degradation (cp_.set_degradation), which starts at none.
  static ChannelConfig lossless() {
    ChannelConfig cfg;
    cfg.base_latency = usec(50);
    cfg.latency_jitter = 0;
    cfg.retry_jitter = 0;
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

  // One full window at once: nothing is evicted.
  const std::size_t n = cfg.max_in_flight;
  for (std::size_t i = 0; i < n; ++i) ch.send(std::any(i));
  sched_.run_until(sec(1));

  ASSERT_EQ(delivered_at.size(), n);
  for (TimeNs t : delivered_at) {
    EXPECT_GE(t, cfg.base_latency);
    EXPECT_LE(t, cfg.base_latency + cfg.latency_jitter);
  }
}

TEST_F(TransportTest, TotalLossExpiresRpcAfterBackoffSchedule) {
  ChannelConfig cfg = lossless();
  cfg.retry_timeout = msec(10);
  cfg.retry_backoff = 2.0;
  cp_.set_degradation(0, 1.0);

  int completions = 0;
  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.blackhole", [](const std::any&) { return std::any(0); }, cfg);
  rpc.call(std::any(std::string("doomed")), [&](std::any&) { ++completions; });

  // One timer per transmission, doubling: the request leg gives up after
  // kRpcMaxAttempts = 6 at 10 + 20 + 40 + 80 + 160 + 320 = 630 ms.
  sched_.run_until(msec(629));
  EXPECT_EQ(rpc.pending_calls(), 1u);
  sched_.run_until(msec(630));
  EXPECT_EQ(rpc.pending_calls(), 0u);  // expiry pruned the completion
  sched_.run_until(sec(5));

  EXPECT_EQ(completions, 0);
  const auto& c = rpc.request_channel().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.lost, kRpcMaxAttempts);         // one per attempt
  EXPECT_EQ(c.retries, kRpcMaxAttempts - 1);  // attempts 2..6
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(rpc.request_channel().in_flight(), 0u);
}

TEST_F(TransportTest, BackoffIsCappedAtMaxRetryTimeout) {
  ChannelConfig cfg = lossless();
  cfg.retry_timeout = msec(10);
  cfg.retry_backoff = 10.0;
  cfg.max_retry_timeout = msec(20);
  cp_.set_degradation(0, 1.0);

  std::vector<TimeNs> attempt_at;
  Channel& ch =
      cp_.make_channel("t.cap", [](std::uint64_t, std::any&) {}, cfg);
  ch.set_on_attempt(
      [&](std::uint64_t, std::uint32_t) { attempt_at.push_back(sched_.now()); });

  ch.send(std::any(0));
  sched_.run_until(msec(135));
  // Timers: 10, then capped at 20 for good — not 10, 100, 1000, ... — and a
  // stream keeps going past kRpcMaxAttempts.
  EXPECT_EQ(attempt_at,
            (std::vector<TimeNs>{0, msec(10), msec(30), msec(50), msec(70),
                                 msec(90), msec(110), msec(130)}));
  EXPECT_EQ(ch.counters().expired, 0u);
  EXPECT_EQ(ch.in_flight(), 1u);
}

TEST_F(TransportTest, RetryExhaustionUnderTotalLossWithJitterAndCap) {
  // Jitter + backoff cap + an RPC leg's attempt cap together. Under 100%
  // loss every retransmit timer must stay within [capped backoff, capped
  // backoff + retry_jitter], the request must stop at kRpcMaxAttempts (not
  // retry forever), and exactly one `expired` is counted.
  ChannelConfig cfg = lossless();
  cfg.retry_timeout = msec(10);
  cfg.retry_backoff = 3.0;
  cfg.max_retry_timeout = msec(25);
  cfg.retry_jitter = msec(2);
  cp_.set_degradation(0, 1.0);

  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.exhaust",
      [](const std::any&) {
        ADD_FAILURE() << "a request crossed a total-loss plane";
        return std::any();
      },
      cfg);
  std::vector<TimeNs> attempt_at;
  rpc.request_channel().set_on_attempt(
      [&](std::uint64_t, std::uint32_t) { attempt_at.push_back(sched_.now()); });
  rpc.call(std::any(std::string("exhausted")), [](std::any&) { FAIL(); });
  sched_.run_until(sec(10));

  // Timers: 10 ms, then 30/90/270/810 ms all capped at 25 ms, each + [0, 2]
  // ms of jitter.
  ASSERT_EQ(attempt_at.size(), kRpcMaxAttempts);
  for (std::size_t i = 1; i < attempt_at.size(); ++i) {
    const TimeNs backoff = i == 1 ? msec(10) : msec(25);
    EXPECT_GE(attempt_at[i] - attempt_at[i - 1], backoff) << "attempt " << i;
    EXPECT_LE(attempt_at[i] - attempt_at[i - 1], backoff + cfg.retry_jitter)
        << "attempt " << i;
  }
  EXPECT_EQ(rpc.pending_calls(), 0u);
  const auto& c = rpc.request_channel().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.lost, kRpcMaxAttempts);  // every transmission eaten
  EXPECT_EQ(c.retries, kRpcMaxAttempts - 1);
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(rpc.request_channel().in_flight(), 0u);  // nothing left armed
}

TEST_F(TransportTest, StreamRetriesUntilAckedAndWindowDropsOldest) {
  std::vector<int> deliveries(65, 0);
  Channel& ch = cp_.make_channel(
      "t.stream",
      [&](std::uint64_t, std::any& p) { ++deliveries[std::any_cast<int>(p)]; },
      lossless());
  std::vector<std::uint64_t> evicted;
  std::vector<int> evicted_body;
  ch.set_on_expire([&](std::uint64_t seq, std::any& p) {
    evicted.push_back(seq);
    evicted_body.push_back(std::any_cast<int>(p));
  });
  std::uint32_t max_attempt = 0;
  ch.set_on_attempt([&](std::uint64_t, std::uint32_t attempt) {
    max_attempt = std::max(max_attempt, attempt);
  });

  // Peer down: one message past the 64-message window evicts the oldest.
  ch.set_peer_down(true);
  for (int i = 0; i < 65; ++i) ch.send(std::any(i));
  EXPECT_EQ(ch.counters().dropped, 1u);
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(evicted_body, (std::vector<int>{0}));
  EXPECT_EQ(ch.in_flight(), 64u);

  // The rest keep retrying well past an RPC leg's cap, and never expire.
  sched_.run_until(sec(20));
  EXPECT_GT(max_attempt, kRpcMaxAttempts);
  EXPECT_EQ(ch.counters().expired, 0u);
  EXPECT_EQ(ch.in_flight(), 64u);
  EXPECT_EQ(ch.oldest_unacked_sent(), 0);

  // Recovery: each of the other 64 arrives exactly once.
  ch.set_peer_down(false);
  sched_.run_until(sec(25));
  EXPECT_EQ(deliveries[0], 0);
  for (int i = 1; i < 65; ++i) EXPECT_EQ(deliveries[i], 1) << "message " << i;
  EXPECT_EQ(ch.counters().delivered, 64u);
  EXPECT_EQ(ch.counters().dropped, 1u);
  EXPECT_EQ(ch.in_flight(), 0u);
  EXPECT_EQ(ch.oldest_unacked_sent(), kNoTime);

  // An RPC leg under the same outage still expires after kRpcMaxAttempts.
  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.stream_rpc", [](const std::any&) { return std::any(0); }, lossless());
  rpc.set_server_down(true);
  int completions = 0;
  rpc.call(std::any(1), [&](std::any&) { ++completions; });
  sched_.run_until(sec(45));
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(rpc.pending_calls(), 0u);
  EXPECT_EQ(rpc.request_channel().counters().expired, 1u);
  EXPECT_EQ(rpc.request_channel().counters().retries, kRpcMaxAttempts - 1);
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
  cfg.latency_jitter = usec(25);
  cfg.retry_timeout = msec(5);
  cfg.max_in_flight = 4096;  // no backpressure in this test

  int handler_runs = 0;
  Channel& ch = cp_.make_channel(
      "t.lossy", [&](std::uint64_t, std::any&) { ++handler_runs; }, cfg);
  cp_.set_degradation(0, 0.3);

  constexpr int kMsgs = 300;
  for (int i = 0; i < kMsgs; ++i) ch.send(std::any(i));
  sched_.run_until(sec(30));

  const auto& c = ch.counters();
  EXPECT_EQ(c.sent, kMsgs);
  // A stream retries until acked: every message reached the handler, with
  // visible retry/duplicate traffic on the way.
  EXPECT_EQ(c.delivered, c.sent);
  EXPECT_EQ(c.expired, 0u);
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
  cfg.retry_timeout = msec(5);
  cfg.max_in_flight = 4096;
  cp_.set_degradation(0, 0.4);

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

  // Total extra loss: nothing gets through; the message keeps retrying.
  cp_.set_degradation(0, 1.0);
  ch.send(std::any(1));
  sched_.run_until(sec(30));
  EXPECT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(ch.counters().expired, 0u);
  EXPECT_EQ(ch.in_flight(), 1u);

  // Clearing restores the configured behaviour: the next retransmission
  // (at most the 2 s backoff cap away) delivers it, and a fresh send
  // arrives after the base latency.
  cp_.clear_degradation();
  sched_.run_until(sched_.now() + sec(3));
  ASSERT_EQ(delivered_at.size(), 2u);
  EXPECT_EQ(ch.in_flight(), 0u);
  ch.send(std::any(2));
  const TimeNs sent_at = sched_.now();
  sched_.run_until(sched_.now() + sec(1));
  ASSERT_EQ(delivered_at.size(), 3u);
  EXPECT_EQ(delivered_at[2], sent_at + usec(50));
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
  cfg.retry_jitter = msec(5);
  cp_.set_degradation(0, 1.0);
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

  // Fresh sends against a dead peer are eaten too, and keep retrying.
  ch.send(std::any(2));
  sched_.run_until(sec(5));
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(ch.counters().expired, 0u);
  EXPECT_GT(ch.counters().lost, 0u);
  EXPECT_EQ(ch.in_flight(), 2u);

  // Recovery: epoch bumps (stale-response guard) and delivery resumes: the
  // fresh send at once, the two retried ones on their next retransmission.
  ch.set_peer_down(false);
  EXPECT_EQ(ch.peer_epoch(), 2u);
  ch.send(std::any(3));
  sched_.run_until(sched_.now() + msec(1));
  EXPECT_EQ(delivered, 1u);
  sched_.run_until(sched_.now() + sec(3));
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(ch.in_flight(), 0u);
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
