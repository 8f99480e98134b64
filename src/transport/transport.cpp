#include "transport/transport.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/dedup.h"
#include "prof/prof.h"

namespace rpm::transport {

// ---------------------------------------------------------------------------
// Channel

struct Channel::Impl : std::enable_shared_from_this<Channel::Impl> {
  Impl(sim::Scheduler& s, std::string n, Rng r,
       std::shared_ptr<const Degradation> d)
      : sched(s), name(std::move(n)), rng(std::move(r)), deg(std::move(d)) {
    auto& reg = telemetry::registry();
    m_sent = result_counter("sent");
    m_delivered = result_counter("delivered");
    m_duplicate = result_counter("duplicate");
    m_lost = result_counter("lost");
    m_retry = result_counter("retry");
    m_dropped = result_counter("dropped");
    m_depth = reg.gauge("rpm_transport_queue_depth",
                        "Unacked in-flight messages", {{"channel", name}});
    m_bytes = reg.counter("rpm_transport_bytes_total",
                          "Declared wire bytes transmitted (per attempt)",
                          {{"channel", name}});
    m_latency = reg.histogram("rpm_transport_delivery_latency_ns",
                              "send() to first delivery (includes retries)",
                              {{"channel", name}});
  }

  struct Msg {
    std::uint64_t seq = 0;
    std::any payload;
    Bytes wire_bytes = 0;  // declared size, counted per attempt
    TimeNs first_sent = 0;
    std::uint32_t attempts = 0;
    bool cancelled = false;  // abandoned: pending events become no-ops
    bool acked = false;
    bool delivered = false;
  };

  sim::Scheduler& sched;
  std::string name;
  Rng rng;
  std::shared_ptr<const Degradation> deg;
  HandlerFn handler;
  ExpireFn on_expire;
  AttemptFn on_attempt;
  AckedFn on_acked;
  Counters counters;
  // Transmissions before an undelivered message expires; 0 (one-way
  // streams) retries until acked. Only RpcChannel sets it, via cap_attempts().
  std::uint32_t max_attempts = 0;
  std::uint64_t next_seq = 1;
  bool peer_is_down = false;
  // Ordered by seq so backpressure can evict the oldest unacked message.
  std::map<std::uint64_t, std::shared_ptr<Msg>> unacked;

  telemetry::Counter m_sent, m_delivered, m_duplicate, m_lost, m_retry,
      m_dropped, m_bytes;
  // Registered by cap_attempts() alone: a one-way stream never expires, so
  // it exports no always-zero "expired" series.
  telemetry::Counter m_expired;
  telemetry::Gauge m_depth;
  telemetry::Histogram m_latency;

  [[nodiscard]] telemetry::Counter result_counter(const char* result) const {
    return telemetry::registry().counter(
        "rpm_transport_msgs_total",
        "Control-plane messages by channel and result",
        {{"channel", name}, {"result", result}});
  }

  /// Make this channel an RPC leg: messages expire after kRpcMaxAttempts.
  void cap_attempts() {
    max_attempts = kRpcMaxAttempts;
    m_expired = result_counter("expired");
  }

  void update_depth() {
    m_depth.set(static_cast<double>(unacked.size()));
  }

  TimeNs sample_latency() {
    return kBaseLatency + deg->extra_latency +
           rng.uniform_int(0, kLatencyJitter);
  }

  /// Retransmit timer for the Nth attempt (1-based): exponential backoff
  /// capped at kMaxRetryTimeout, plus per-channel deterministic jitter so
  /// concurrent retries across channels never fire on identical ticks.
  TimeNs retry_after(std::uint32_t attempt) {
    const double t =
        std::min(static_cast<double>(kRetryTimeout) *
                     std::pow(2.0, static_cast<double>(attempt - 1)),
                 static_cast<double>(kMaxRetryTimeout));
    return static_cast<TimeNs>(t) + rng.uniform_int(0, kRetryJitter);
  }

  /// Abandon a message permanently; `result` names the telemetry counter.
  /// Takes the shared_ptr BY VALUE: callers pass the copy held inside the
  /// `unacked` map node, which the erase below destroys — a reference would
  /// dangle before the on_expire callback reads seq/payload through it.
  void abandon(std::shared_ptr<Msg> m, const telemetry::Counter& which,
               std::uint64_t Counters::*slot) {
    m->cancelled = true;
    ++(counters.*slot);
    which.inc();
    unacked.erase(m->seq);
    update_depth();
    if (on_expire) on_expire(m->seq, m->payload);
  }

  void attempt(const std::shared_ptr<Msg>& m) {
    ++m->attempts;
    if (m->attempts > 1) {
      ++counters.retries;
      m_retry.inc();
    }
    if (on_attempt) on_attempt(m->seq, m->attempts);
    // Bandwidth cost: the bytes leave the NIC on every attempt whether or
    // not the network delivers them, so count them before the loss lottery.
    if (m->wire_bytes > 0) {
      counters.bytes_sent += static_cast<std::uint64_t>(m->wire_bytes);
      m_bytes.inc(static_cast<std::uint64_t>(m->wire_bytes));
    }
    std::weak_ptr<Impl> weak = weak_from_this();
    if (peer_is_down) {
      // The peer process is gone: the bytes leave the NIC and die unread.
      ++counters.lost;
      m_lost.inc();
    } else if (rng.chance(deg->extra_loss)) {
      ++counters.lost;
      m_lost.inc();
    } else {
      sched.schedule_after(sample_latency(), [weak, m] {
        auto self = weak.lock();
        if (!self || m->cancelled) return;
        if (self->peer_is_down) {
          // The peer crashed while this delivery was in flight.
          ++self->counters.lost;
          self->m_lost.inc();
          return;
        }
        self->deliver(m);
      });
    }
    sched.schedule_after(retry_after(m->attempts), [weak, m] {
      auto self = weak.lock();
      if (!self || m->cancelled || m->acked) return;
      if (self->max_attempts != 0 && m->attempts >= self->max_attempts) {
        if (m->delivered) {
          // Delivered, but every ack was lost: the receiver has it, so stop
          // retrying without recording a failure (keeps the invariant
          // delivered + expired + dropped == sent at quiescence).
          m->cancelled = true;
          self->unacked.erase(m->seq);
          self->update_depth();
        } else {
          self->abandon(m, self->m_expired, &Counters::expired);
        }
      } else {
        self->attempt(m);
      }
    });
  }

  void deliver(const std::shared_ptr<Msg>& m) {
    if (m->delivered) {
      ++counters.duplicates;
      m_duplicate.inc();
    } else {
      m->delivered = true;
      ++counters.delivered;
      m_delivered.inc();
      m_latency.observe(static_cast<double>(sched.now() - m->first_sent));
    }
    // The handler runs for duplicates too (an at-least-once transport cannot
    // hide them); receivers dedup on header fields.
    if (handler) {
      prof::StageScope prof_scope(prof::Stage::kTransportDeliver);
      handler(m->seq, m->payload);
    }
    // Ack path: same latency/loss model in the reverse direction. A lost ack
    // leaves the message unacked, so the retry timer fires a duplicate.
    if (rng.chance(deg->extra_loss)) return;
    const TimeNs lat = sample_latency();
    std::weak_ptr<Impl> weak = weak_from_this();
    sched.schedule_after(lat, [weak, m] {
      auto self = weak.lock();
      if (!self || m->cancelled || m->acked) return;
      m->acked = true;
      self->unacked.erase(m->seq);
      self->update_depth();
      if (self->on_acked) self->on_acked(m->seq);
    });
  }
};

Channel::Channel(sim::Scheduler& sched, std::string name, Rng rng,
                 std::shared_ptr<const Degradation> degradation)
    : impl_(std::make_shared<Impl>(sched, std::move(name), std::move(rng),
                                   std::move(degradation))) {}

Channel::~Channel() = default;

std::uint64_t Channel::send(std::any payload, Bytes wire_bytes) {
  Impl& im = *impl_;
  if (im.unacked.size() >= kSeqWindow) {
    im.abandon(im.unacked.begin()->second, im.m_dropped, &Counters::dropped);
  }
  auto m = std::make_shared<Impl::Msg>();
  m->seq = im.next_seq++;
  m->payload = std::move(payload);
  m->wire_bytes = wire_bytes;
  m->first_sent = im.sched.now();
  im.unacked.emplace(m->seq, m);
  ++im.counters.sent;
  im.m_sent.inc();
  im.update_depth();
  im.attempt(m);
  return m->seq;
}

void Channel::set_handler(HandlerFn handler) {
  impl_->handler = std::move(handler);
}

void Channel::set_on_expire(ExpireFn fn) { impl_->on_expire = std::move(fn); }

void Channel::set_on_attempt(AttemptFn fn) {
  impl_->on_attempt = std::move(fn);
}

void Channel::set_on_acked(AckedFn fn) { impl_->on_acked = std::move(fn); }

void Channel::cancel_unacked() {
  Impl& im = *impl_;
  // Move the map out first: on_expire callbacks may re-enter the channel.
  auto abandoned = std::move(im.unacked);
  im.unacked.clear();
  im.update_depth();
  for (auto& [seq, m] : abandoned) {
    m->cancelled = true;
    ++im.counters.dropped;
    im.m_dropped.inc();
    if (im.on_expire) im.on_expire(seq, m->payload);
  }
}

void Channel::note_app_drop(std::uint64_t n) {
  impl_->counters.dropped += n;
  impl_->m_dropped.inc(n);
}

void Channel::set_peer_down(bool down) { impl_->peer_is_down = down; }

bool Channel::peer_down() const { return impl_->peer_is_down; }

const Channel::Counters& Channel::counters() const {
  return impl_->counters;
}

std::size_t Channel::in_flight() const { return impl_->unacked.size(); }

TimeNs Channel::oldest_unacked_sent() const {
  const auto& unacked = impl_->unacked;
  return unacked.empty() ? kNoTime : unacked.begin()->second->first_sent;
}

const std::string& Channel::name() const { return impl_->name; }

// ---------------------------------------------------------------------------
// RpcChannel

RpcChannel::RpcChannel(sim::Scheduler& sched, std::string name, Rng rng,
                       std::shared_ptr<const Degradation> degradation,
                       ServerFn server)
    : req_(std::make_unique<Channel>(sched, name + ".req", rng.fork(),
                                     degradation)),
      rsp_(std::make_unique<Channel>(sched, name + ".rsp", rng.fork(),
                                     degradation)),
      server_(std::make_shared<ServerFn>(std::move(server))),
      pending_(std::make_shared<
               std::unordered_map<std::uint64_t, ResponseFn>>()) {
  req_->impl_->cap_attempts();
  rsp_->impl_->cap_attempts();
  // Server side: every delivered request (duplicates included — the server
  // must be idempotent) produces a response correlated by request seq.
  req_->set_handler([srv = server_, rsp = rsp_.get()](std::uint64_t seq,
                                                      std::any& payload) {
    if (!*srv) return;
    Envelope env;
    env.request_seq = seq;
    env.payload = (*srv)(payload);
    rsp->send(std::any(std::move(env)));
  });
  // Client side: first response wins; later duplicates find no pending entry.
  rsp_->set_handler([pending = pending_](std::uint64_t, std::any& payload) {
    auto* env = std::any_cast<Envelope>(&payload);
    if (env == nullptr) return;
    auto it = pending->find(env->request_seq);
    if (it == pending->end()) return;
    ResponseFn fn = std::move(it->second);
    pending->erase(it);
    if (fn) fn(env->payload);
  });
  // A request that will never be delivered can never complete.
  req_->set_on_expire([pending = pending_](std::uint64_t seq, std::any&) {
    pending->erase(seq);
  });
}

RpcChannel::~RpcChannel() = default;

std::uint64_t RpcChannel::call(std::any request, ResponseFn on_response) {
  const std::uint64_t seq = req_->send(std::move(request));
  // send() may have evicted an older request; its on_expire already pruned
  // pending_, so this insert is the only live entry for `seq`.
  (*pending_)[seq] = std::move(on_response);
  return seq;
}

void RpcChannel::cancel_pending() {
  pending_->clear();
  req_->cancel_unacked();
}

void RpcChannel::set_server(ServerFn server) { *server_ = std::move(server); }

void RpcChannel::set_server_down(bool down) { req_->set_peer_down(down); }

bool RpcChannel::server_down() const { return req_->peer_down(); }

std::size_t RpcChannel::pending_calls() const { return pending_->size(); }

// ---------------------------------------------------------------------------
// ControlPlane

ControlPlane::ControlPlane(sim::Scheduler& sched, Rng rng)
    : sched_(sched),
      rng_(std::move(rng)),
      degradation_(std::make_shared<Degradation>()) {}

Channel& ControlPlane::make_channel(std::string name,
                                    Channel::HandlerFn handler) {
  channels_.push_back(std::make_unique<Channel>(sched_, std::move(name),
                                                rng_.fork(), degradation_));
  channels_.back()->set_handler(std::move(handler));
  return *channels_.back();
}

RpcChannel& ControlPlane::make_rpc_channel(std::string name,
                                           RpcChannel::ServerFn server) {
  rpcs_.push_back(std::make_unique<RpcChannel>(
      sched_, std::move(name), rng_.fork(), degradation_, std::move(server)));
  return *rpcs_.back();
}

void ControlPlane::set_degradation(TimeNs extra_latency, double extra_loss) {
  degradation_->extra_latency = extra_latency;
  degradation_->extra_loss = std::clamp(extra_loss, 0.0, 1.0);
}

}  // namespace rpm::transport
