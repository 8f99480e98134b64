// Control-plane transport: the message bus between Agents, the Controller,
// and the Analyzer.
//
// In production these are separate services talking over a real datacenter
// control network (§4): Agents upload record batches to the Analyzer over
// TCP, register with the Controller, and pull pinglists by RPC. This module
// gives the reproduction that shape without real sockets: a `Channel` is a
// unidirectional, typed message stream whose simulation backend models
//
//   * delivery latency (base + uniform jitter, per message),
//   * loss (Bernoulli per transmission attempt, on data AND acks),
//   * at-least-once retry with capped exponential backoff,
//   * a bounded in-flight window with drop-oldest backpressure,
//
// all on the shared `sim::Scheduler` clock with a per-channel forked
// `Rng`, so runs stay fully deterministic. Retries mean *duplicates*:
// receivers must deduplicate (the Analyzer suppresses repeated batch
// sequence numbers; Controller RPCs are idempotent).
//
// Delivery discipline. The transport is the only layer that retries. A
// one-way Channel (Agent uploads, pod digests) retransmits a message until
// it is acked, evicted by the drop-oldest window, or cancelled: an outage
// of the receiver costs the sender its oldest history beyond
// `max_in_flight`, never its newest. The two legs of an `RpcChannel`
// give up after kRpcMaxAttempts transmissions instead, because an RPC's
// caller owns its retry policy (registration backoff, heartbeats, pulls).
//
// `RpcChannel` composes two Channels (request/response) into a
// request-response pair correlated by the request's sequence number; the
// client sees exactly one response per call even when retries made the
// server execute several times.
//
// `ControlPlane` owns every channel of a cluster, hands out forked RNG
// streams, and carries the shared `Degradation` knob that the
// control-plane-degradation fault (src/faults) flips: extra latency and
// extra loss applied to every channel at once.
//
// Every channel self-reports through src/telemetry:
//   rpm_transport_msgs_total{channel,result=sent|delivered|duplicate|lost|
//                            retry|dropped}
//   rpm_transport_msgs_total{channel,result=expired}  (RpcChannel legs only)
//   rpm_transport_queue_depth{channel}        (unacked in-flight window)
//   rpm_transport_delivery_latency_ns{channel} (send -> first delivery)
//   rpm_transport_bytes_total{channel}        (declared wire bytes, per attempt)
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"

namespace rpm::transport {

struct ChannelConfig {
  TimeNs base_latency = usec(50);    // one-way control-plane latency
  TimeNs latency_jitter = usec(25);  // uniform [0, jitter) added per message
  std::size_t max_in_flight = 64;    // unacked window; beyond: drop oldest
  TimeNs retry_timeout = msec(50);   // first retransmit timer
  double retry_backoff = 2.0;        // timer multiplier per attempt
  TimeNs max_retry_timeout = sec(2); // backoff ceiling
  // Uniform [0, retry_jitter] added to every retransmit timer from the
  // channel's own seeded Rng: channels that saw the same loss at the same
  // tick retry on different ticks (no thundering herd), deterministically.
  TimeNs retry_jitter = msec(5);
};

/// Transmissions an RpcChannel leg makes before it gives up on a message.
/// One-way Channels have no such cap: they retry until acked.
inline constexpr std::uint32_t kRpcMaxAttempts = 6;

/// Fault-injectable control-plane impairment, shared by every channel of a
/// ControlPlane: per-attempt loss on data and acks, plus extra latency.
struct Degradation {
  TimeNs extra_latency = 0;
  double extra_loss = 0.0;
};

/// Unidirectional at-least-once message stream. Single-threaded (simulator
/// clock); safe to destroy with deliveries still queued — in-flight events
/// hold weak references to the channel state.
class Channel {
 public:
  /// Receiver callback. `payload` is mutable so handlers can move large
  /// message bodies out; on duplicate deliveries the payload may therefore
  /// be moved-from — dedup on header fields before touching the body.
  /// Handlers run inside the delivery event, on the simulation thread.
  using HandlerFn = std::function<void(std::uint64_t seq, std::any& payload)>;
  /// Abandon callback: the message was evicted by the window, cancelled,
  /// or (RPC legs only) expired undelivered. `payload` is handed back
  /// mutable; if the message was already delivered when abandoned (eviction
  /// racing a lost ack), it may be moved-from. May be invoked from inside
  /// send() (drop-oldest backpressure): do not re-enter the channel
  /// synchronously.
  using ExpireFn = std::function<void(std::uint64_t seq, std::any& payload)>;
  /// Observer of transmission attempts (attempt is 1-based).
  using AttemptFn =
      std::function<void(std::uint64_t seq, std::uint32_t attempt)>;
  /// Observer invoked when the sender learns a message was acked.
  using AckedFn = std::function<void(std::uint64_t seq)>;

  Channel(sim::Scheduler& sched, std::string name, Rng rng,
          ChannelConfig cfg, std::shared_ptr<const Degradation> degradation);
  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueue a message; returns its channel-unique sequence number. If the
  /// in-flight window is full the OLDEST unacked message is dropped
  /// (counted as result="dropped") — latest-wins backpressure, matching
  /// what a monitoring upload path wants under overload.
  std::uint64_t send(std::any payload);

  /// As send(), declaring the message's wire size: every transmission
  /// attempt adds `wire_bytes` to rpm_transport_bytes_total{channel}.
  /// Delivery timing does not depend on the size. wire_bytes == 0 behaves
  /// exactly like the plain send().
  std::uint64_t send(std::any payload, Bytes wire_bytes);

  /// Sender-side handler swap (nullptr detaches: messages still count as
  /// delivered but are discarded). The consumer calls this once at setup.
  void set_handler(HandlerFn handler);

  /// Invoked when a message is abandoned (backpressure, cancel_unacked, or
  /// an RPC leg's kRpcMaxAttempts without delivery), payload returned.
  void set_on_expire(ExpireFn fn);

  /// Observability hooks (flight recorder / per-message tracing). Both are
  /// one branch per event when unset.
  void set_on_attempt(AttemptFn fn);
  void set_on_acked(AckedFn fn);

  /// Abandon every unacked message (process shutdown / host death); each is
  /// counted as result="dropped" and its retries stop.
  void cancel_unacked();

  /// Record `n` messages the application discarded before they ever reached
  /// send() (e.g. an Agent on a dead host clearing its outbox). Keeps every
  /// control-plane drop in one counter: rpm_transport_msgs_total{result="dropped"}.
  void note_app_drop(std::uint64_t n = 1);

  /// Connection lifecycle: channels are established per (peer, epoch).
  /// While the peer process is down every transmission attempt is eaten by
  /// the network (counted lost), including deliveries already in flight;
  /// retries keep running on their capped backoff, so a one-way channel
  /// delivers its window once the peer is back (an RPC leg expires its
  /// messages instead). Bringing the peer back up starts a new connection
  /// epoch.
  void set_peer_down(bool down);
  [[nodiscard]] bool peer_down() const;
  /// Number of times the peer has been (re)established, starting at 1.
  [[nodiscard]] std::uint64_t peer_epoch() const;

  struct Counters {
    std::uint64_t sent = 0;        // send() calls accepted
    std::uint64_t delivered = 0;   // first deliveries to the handler
    std::uint64_t duplicates = 0;  // repeat deliveries (retry raced the ack)
    std::uint64_t lost = 0;        // transmission attempts the network ate
    std::uint64_t retries = 0;     // retransmissions
    std::uint64_t dropped = 0;     // backpressure + cancel + app drops
    std::uint64_t expired = 0;     // RPC legs: kRpcMaxAttempts, undelivered
    std::uint64_t bytes_sent = 0;  // declared wire bytes, per attempt
  };
  [[nodiscard]] const Counters& counters() const;
  [[nodiscard]] std::size_t in_flight() const;
  /// send() time of the oldest unacked message; kNoTime when none is.
  [[nodiscard]] TimeNs oldest_unacked_sent() const;
  [[nodiscard]] const std::string& name() const;
  [[nodiscard]] const ChannelConfig& config() const;

 private:
  friend class RpcChannel;  // caps its legs at kRpcMaxAttempts

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Request-response on top of two Channels ("<name>.req" / "<name>.rsp"),
/// correlated by request sequence number. At-least-once requests against an
/// idempotent server; the client callback fires exactly once (first response
/// wins, duplicates are absorbed by the response channel's dedup here).
class RpcChannel {
 public:
  /// Server: consumes a request payload, produces the response payload.
  /// May run more than once per logical request (retried deliveries) — must
  /// be idempotent.
  using ServerFn = std::function<std::any(const std::any& request)>;
  /// Client completion. Mutable payload so large responses can be moved out.
  using ResponseFn = std::function<void(std::any& response)>;

  RpcChannel(sim::Scheduler& sched, std::string name, Rng rng,
             ChannelConfig cfg, std::shared_ptr<const Degradation> degradation,
             ServerFn server);
  ~RpcChannel();
  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  /// Issue a call; `on_response` fires once, or never if the request
  /// expires (caller owns retry-at-the-application-layer policy).
  std::uint64_t call(std::any request, ResponseFn on_response);

  /// Drop every outstanding call's completion (process shutdown).
  void cancel_pending();

  void set_server(ServerFn server);

  /// Server-process lifecycle: while down, requests die on the wire (the
  /// client sees silence, then expiry) and the handler never runs. Responses
  /// already in flight from before the crash may still arrive.
  void set_server_down(bool down);
  [[nodiscard]] bool server_down() const;

  [[nodiscard]] Channel& request_channel() { return *req_; }
  [[nodiscard]] Channel& response_channel() { return *rsp_; }
  [[nodiscard]] std::size_t pending_calls() const;

 private:
  struct Envelope {
    std::uint64_t request_seq = 0;
    std::any payload;
  };

  std::unique_ptr<Channel> req_;
  std::unique_ptr<Channel> rsp_;
  std::shared_ptr<ServerFn> server_;
  // shared so the response handler survives if the RpcChannel dies first
  std::shared_ptr<std::unordered_map<std::uint64_t, ResponseFn>> pending_;
};

/// Factory + owner of every control-plane channel in a cluster. One per
/// Cluster; faults degrade the whole plane through set_degradation().
class ControlPlane {
 public:
  ControlPlane(sim::Scheduler& sched, Rng rng);

  /// Create (and own) a channel; each gets an independent forked Rng stream.
  Channel& make_channel(std::string name, Channel::HandlerFn handler,
                        ChannelConfig cfg = {});
  RpcChannel& make_rpc_channel(std::string name, RpcChannel::ServerFn server,
                               ChannelConfig cfg = {});

  void set_degradation(TimeNs extra_latency, double extra_loss);
  void clear_degradation() { set_degradation(0, 0.0); }
  [[nodiscard]] const Degradation& degradation() const { return *degradation_; }

  [[nodiscard]] std::size_t num_channels() const {
    return channels_.size() + 2 * rpcs_.size();
  }

 private:
  sim::Scheduler& sched_;
  Rng rng_;
  std::shared_ptr<Degradation> degradation_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<RpcChannel>> rpcs_;
};

}  // namespace rpm::transport
