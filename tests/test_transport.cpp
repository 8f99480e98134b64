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

#include "common/dedup.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "transport/transport.h"

namespace rpm::transport {
namespace {

/// The retransmit timer of attempt n (1-based) before its jitter:
/// kRetryTimeout doubled n - 1 times, capped at kMaxRetryTimeout.
TimeNs backoff(std::size_t attempt) {
  TimeNs t = kRetryTimeout;
  for (std::size_t i = 1; i < attempt && t < kMaxRetryTimeout; ++i) t *= 2;
  return std::min(t, kMaxRetryTimeout);
}

/// Loss comes from the plane's degradation (cp_.set_degradation), which
/// starts at none.
class TransportTest : public ::testing::Test {
 protected:
  sim::InlineScheduler sched_;
  ControlPlane cp_{sched_, Rng(42)};
};

TEST_F(TransportTest, DeliversPayloadWithinTheLatencyBounds) {
  std::vector<TimeNs> delivered_at;
  std::vector<int> bodies;
  Channel& ch = cp_.make_channel(
      "t.basic", [&](std::uint64_t, std::any& p) {
        delivered_at.push_back(sched_.now());
        bodies.push_back(std::any_cast<int>(p));
      });

  const std::uint64_t seq = ch.send(std::any(7));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(ch.in_flight(), 1u);

  sched_.run_until(sec(1));
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_GE(delivered_at[0], kBaseLatency);  // 50 us
  EXPECT_LE(delivered_at[0], kBaseLatency + kLatencyJitter);  // 75 us
  EXPECT_EQ(bodies[0], 7);
  EXPECT_EQ(ch.counters().delivered, 1u);
  EXPECT_EQ(ch.counters().duplicates, 0u);
  EXPECT_EQ(ch.in_flight(), 0u);  // ack came back, window drained
}

TEST_F(TransportTest, JitterStaysWithinBounds) {
  std::vector<TimeNs> delivered_at;
  Channel& ch = cp_.make_channel(
      "t.jitter",
      [&](std::uint64_t, std::any&) { delivered_at.push_back(sched_.now()); });

  // One full window at once: nothing is evicted.
  for (std::size_t i = 0; i < kSeqWindow; ++i) ch.send(std::any(i));
  sched_.run_until(sec(1));

  ASSERT_EQ(delivered_at.size(), kSeqWindow);
  for (TimeNs t : delivered_at) {
    EXPECT_GE(t, kBaseLatency);
    EXPECT_LE(t, kBaseLatency + kLatencyJitter);
  }
  std::sort(delivered_at.begin(), delivered_at.end());
  EXPECT_LT(delivered_at.front(), delivered_at.back()) << "no jitter drawn";
}

TEST_F(TransportTest, TotalLossExpiresRpcAfterBackoffSchedule) {
  cp_.set_degradation(0, 1.0);

  int completions = 0;
  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.blackhole", [](const std::any&) { return std::any(0); });
  rpc.call(std::any(std::string("doomed")), [&](std::any&) { ++completions; });

  // One timer per transmission, doubling: the request leg gives up after
  // kRpcMaxAttempts = 6 timers of 50 + 100 + 200 + 400 + 800 + 1600 =
  // 3150 ms, each plus [0, 5] ms of jitter.
  TimeNs schedule = 0;
  for (std::size_t i = 1; i <= kRpcMaxAttempts; ++i) schedule += backoff(i);
  ASSERT_EQ(schedule, msec(3150));
  sched_.run_until(schedule - 1);
  EXPECT_EQ(rpc.pending_calls(), 1u);
  sched_.run_until(schedule + kRpcMaxAttempts * kRetryJitter);
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

TEST_F(TransportTest, OnlyRpcLegsExportAnExpiredSeries) {
  // A one-way stream never expires, so it registers no "expired" series;
  // both RPC legs do, and the request leg counts the call it gave up on.
  cp_.set_degradation(0, 1.0);
  Channel& ch =
      cp_.make_channel("t.expiry.stream", [](std::uint64_t, std::any&) {});
  RpcChannel& rpc = cp_.make_rpc_channel(
      "t.expiry.rpc", [](const std::any&) { return std::any(0); });
  ch.send(std::any(0));
  rpc.call(std::any(0), [](std::any&) {});
  sched_.run_until(sec(30));

  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  const auto expired = [&](const std::string& channel) {
    return snap.find("rpm_transport_msgs_total",
                     {{"channel", channel}, {"result", "expired"}});
  };
  EXPECT_EQ(expired("t.expiry.stream"), nullptr);
  EXPECT_EQ(ch.in_flight(), 1u);  // still retrying
  const telemetry::SeriesSample* req = expired("t.expiry.rpc.req");
  const telemetry::SeriesSample* rsp = expired("t.expiry.rpc.rsp");
  ASSERT_NE(req, nullptr);
  ASSERT_NE(rsp, nullptr);
  EXPECT_EQ(req->counter_value, 1u);
  EXPECT_EQ(rsp->counter_value, 0u);
  EXPECT_EQ(rpc.pending_calls(), 0u);
}

TEST_F(TransportTest, BackoffIsCappedAtMaxRetryTimeout) {
  cp_.set_degradation(0, 1.0);

  std::vector<TimeNs> attempt_at;
  Channel& ch = cp_.make_channel("t.cap", [](std::uint64_t, std::any&) {});
  ch.set_on_attempt(
      [&](std::uint64_t, std::uint32_t) { attempt_at.push_back(sched_.now()); });

  ch.send(std::any(0));
  sched_.run_until(sec(12));
  // Timers 50, 100, ..., 1600 ms double; the 7th (3200 ms uncapped) and
  // every later one sit at the 2 s cap, each plus [0, 5] ms of jitter. A
  // stream keeps going past kRpcMaxAttempts.
  ASSERT_GE(attempt_at.size(), 9u);
  EXPECT_EQ(attempt_at.front(), 0);
  for (std::size_t i = 1; i < attempt_at.size(); ++i) {
    const TimeNs gap = attempt_at[i] - attempt_at[i - 1];
    EXPECT_GE(gap, backoff(i)) << "timer " << i;
    EXPECT_LE(gap, backoff(i) + kRetryJitter) << "timer " << i;
  }
  EXPECT_EQ(backoff(6), msec(1600));
  EXPECT_EQ(backoff(7), kMaxRetryTimeout);
  EXPECT_EQ(ch.counters().expired, 0u);
  EXPECT_EQ(ch.in_flight(), 1u);
}

TEST_F(TransportTest, RetryExhaustionUnderTotalLossWithJitter) {
  // Jitter + an RPC leg's attempt cap together. Under 100% loss every
  // retransmit timer must stay within [backoff, backoff + kRetryJitter],
  // the request must stop at kRpcMaxAttempts (not retry forever), and
  // exactly one `expired` is counted.
  cp_.set_degradation(0, 1.0);

  RpcChannel& rpc = cp_.make_rpc_channel("t.exhaust", [](const std::any&) {
    ADD_FAILURE() << "a request crossed a total-loss plane";
    return std::any();
  });
  std::vector<TimeNs> attempt_at;
  rpc.request_channel().set_on_attempt(
      [&](std::uint64_t, std::uint32_t) { attempt_at.push_back(sched_.now()); });
  rpc.call(std::any(std::string("exhausted")), [](std::any&) { FAIL(); });
  sched_.run_until(sec(10));

  // Timers: 50, 100, 200, 400 and 800 ms between the six attempts, each
  // plus [0, 5] ms of jitter; the sixth timer (1600 ms) expires the call.
  ASSERT_EQ(attempt_at.size(), kRpcMaxAttempts);
  for (std::size_t i = 1; i < attempt_at.size(); ++i) {
    const TimeNs gap = attempt_at[i] - attempt_at[i - 1];
    EXPECT_GE(gap, backoff(i)) << "attempt " << i;
    EXPECT_LE(gap, backoff(i) + kRetryJitter) << "attempt " << i;
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
      [&](std::uint64_t, std::any& p) { ++deliveries[std::any_cast<int>(p)]; });
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
      "t.stream_rpc", [](const std::any&) { return std::any(0); });
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
  std::vector<int> bodies;
  std::vector<std::uint64_t> expired;
  Channel& ch = cp_.make_channel(
      "t.window", [&](std::uint64_t, std::any& p) {
        bodies.push_back(std::any_cast<int>(p));
      });
  ch.set_on_expire(
      [&](std::uint64_t seq, std::any&) { expired.push_back(seq); });

  const int window = static_cast<int>(kSeqWindow);
  for (int i = 1; i <= window; ++i) ch.send(std::any(i));
  EXPECT_EQ(ch.counters().dropped, 0u);
  ch.send(std::any(window + 1));  // the 65th evicts seq 1 (latest wins)
  EXPECT_EQ(ch.in_flight(), kSeqWindow);

  sched_.run_until(sec(1));
  std::sort(bodies.begin(), bodies.end());  // jitter reorders arrivals
  ASSERT_EQ(bodies.size(), kSeqWindow);
  EXPECT_EQ(bodies.front(), 2);
  EXPECT_EQ(bodies.back(), window + 1);
  EXPECT_EQ(expired, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(ch.counters().dropped, 1u);
  EXPECT_EQ(ch.counters().delivered, kSeqWindow);
}

TEST_F(TransportTest, CancelUnackedStopsDeliveryAndCountsDrops) {
  int deliveries = 0;
  Channel& ch = cp_.make_channel(
      "t.cancel", [&](std::uint64_t, std::any&) { ++deliveries; });

  for (int i = 0; i < 5; ++i) ch.send(std::any(i));
  ch.cancel_unacked();
  EXPECT_EQ(ch.in_flight(), 0u);

  sched_.run_until(sec(1));
  EXPECT_EQ(deliveries, 0);  // queued delivery events became no-ops
  EXPECT_EQ(ch.counters().dropped, 5u);
  EXPECT_EQ(ch.counters().delivered, 0u);
}

TEST_F(TransportTest, NoteAppDropOnlyBumpsTheDropCounter) {
  Channel& ch = cp_.make_channel("t.appdrop", [](std::uint64_t, std::any&) {});
  ch.note_app_drop(3);
  EXPECT_EQ(ch.counters().dropped, 3u);
  EXPECT_EQ(ch.counters().sent, 0u);
}

TEST_F(TransportTest, LossyChannelCountersStayConsistent) {
  int handler_runs = 0;
  Channel& ch = cp_.make_channel(
      "t.lossy", [&](std::uint64_t, std::any&) { ++handler_runs; });
  cp_.set_degradation(0, 0.3);

  // Bursts no larger than the window, each given time to drain: no
  // backpressure in this test.
  constexpr int kBursts = 5;
  constexpr int kBurst = 60;
  static_assert(kBurst <= static_cast<int>(kSeqWindow));
  for (int b = 0; b < kBursts; ++b) {
    for (int i = 0; i < kBurst; ++i) ch.send(std::any(b * kBurst + i));
    sched_.run_until(sched_.now() + sec(30));
  }

  const auto& c = ch.counters();
  EXPECT_EQ(c.sent, kBursts * kBurst);
  EXPECT_EQ(c.dropped, 0u);
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
  RpcChannel& rpc = cp_.make_rpc_channel("t.rpc", [](const std::any& req) {
    return std::any(std::any_cast<int>(req) * 2);
  });

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
  cp_.set_degradation(0, 0.4);

  int server_runs = 0;
  RpcChannel& rpc =
      cp_.make_rpc_channel("t.rpc_lossy", [&](const std::any& req) {
        ++server_runs;
        return std::any(std::any_cast<int>(req) + 1);
      });

  // Bursts small enough that neither leg's window fills, even with the
  // duplicate responses retried requests provoke: no backpressure.
  constexpr int kCalls = 100;
  constexpr int kBurst = 20;
  static_assert(kCalls % kBurst == 0 && 2 * kBurst <= kSeqWindow);
  std::vector<int> completions(kCalls, 0);
  for (int b = 0; b < kCalls; b += kBurst) {
    for (int i = b; i < b + kBurst; ++i) {
      rpc.call(std::any(i), [&completions, i](std::any& rsp) {
        ++completions[i];
        EXPECT_EQ(std::any_cast<int>(rsp), i + 1);
      });
    }
    sched_.run_until(sched_.now() + sec(10));
  }
  EXPECT_EQ(rpc.request_channel().counters().dropped, 0u);
  EXPECT_EQ(rpc.response_channel().counters().dropped, 0u);

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
      "t.rpc_cancel", [](const std::any&) { return std::any(0); });

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
      [&](std::uint64_t, std::any&) { delivered_at.push_back(sched_.now()); });

  cp_.set_degradation(msec(1), 0.0);
  ch.send(std::any(0));
  sched_.run_until(sec(1));
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_GE(delivered_at[0], msec(1) + kBaseLatency);
  EXPECT_LE(delivered_at[0], msec(1) + kBaseLatency + kLatencyJitter);

  // Total extra loss: nothing gets through; the message keeps retrying.
  cp_.set_degradation(0, 1.0);
  ch.send(std::any(1));
  sched_.run_until(sec(30));
  EXPECT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(ch.counters().expired, 0u);
  EXPECT_EQ(ch.in_flight(), 1u);

  // Clearing restores the plain plane: the next retransmission (at most
  // the 2 s backoff cap plus its jitter away) delivers it, and a fresh send
  // arrives within the undegraded latency bounds.
  cp_.clear_degradation();
  sched_.run_until(sched_.now() + sec(3));
  ASSERT_EQ(delivered_at.size(), 2u);
  EXPECT_EQ(ch.in_flight(), 0u);
  ch.send(std::any(2));
  const TimeNs sent_at = sched_.now();
  sched_.run_until(sched_.now() + sec(1));
  ASSERT_EQ(delivered_at.size(), 3u);
  EXPECT_GE(delivered_at[2], sent_at + kBaseLatency);
  EXPECT_LE(delivered_at[2], sent_at + kBaseLatency + kLatencyJitter);
}

TEST_F(TransportTest, RetryJitterAvoidsThunderingHerd) {
  // Eight channels lose their first transmission at the same tick. Each
  // channel's own seeded Rng spreads the retransmit timers: the second
  // attempts must NOT all land on the same tick (the thundering herd that
  // would re-bury a Controller recovering from a crash), yet every one
  // stays inside [kRetryTimeout, kRetryTimeout + kRetryJitter].
  constexpr int kChannels = 8;
  cp_.set_degradation(0, 1.0);
  std::vector<TimeNs> second_attempt_at;
  for (int i = 0; i < kChannels; ++i) {
    Channel& ch = cp_.make_channel("t.herd" + std::to_string(i),
                                   [](std::uint64_t, std::any&) {});
    ch.set_on_attempt([&](std::uint64_t, std::uint32_t attempt) {
      if (attempt == 2) second_attempt_at.push_back(sched_.now());
    });
    ch.send(std::any(i));
  }
  sched_.run_until(sec(5));

  ASSERT_EQ(second_attempt_at.size(), static_cast<std::size_t>(kChannels));
  for (TimeNs t : second_attempt_at) {
    EXPECT_GE(t, kRetryTimeout);
    EXPECT_LE(t, kRetryTimeout + kRetryJitter);
  }
  std::sort(second_attempt_at.begin(), second_attempt_at.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(second_attempt_at.begin(), second_attempt_at.end()) -
      second_attempt_at.begin());
  EXPECT_GE(distinct, 2u) << "all " << kChannels
                          << " channels retried on the same tick";
}

TEST_F(TransportTest, PeerDownDropsTrafficUntilRecovery) {
  std::size_t delivered = 0;
  Channel& ch = cp_.make_channel(
      "t.down", [&](std::uint64_t, std::any&) { ++delivered; });
  EXPECT_FALSE(ch.peer_down());

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

  // Recovery: delivery resumes, the fresh send at once, the two retried
  // ones on their next retransmission.
  ch.set_peer_down(false);
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
