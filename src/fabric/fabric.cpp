#include "fabric/fabric.h"

#include "obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace rpm::fabric {

namespace {

constexpr Bytes kBufferBytes = 32 * 1024 * 1024;  // per-port packet buffer
constexpr Bytes kEcnKmin = 1 * 1024 * 1024;       // RED/ECN min threshold
constexpr Bytes kEcnKmax = 8 * 1024 * 1024;       // RED/ECN max threshold
static_assert(kEcnKmin < kEcnKmax && kEcnKmax <= kBufferBytes,
              "ECN thresholds: require kmin < kmax <= buffer");
constexpr double kEcnPmax = 0.2;           // marking prob at kmax
constexpr double kPfcThresholdFrac = 0.75;  // queue frac asserting PAUSE
// Seed of the corruption and overflow lottery. Every Cluster seed draws the
// same stream.
constexpr std::uint64_t kSeed = 42;

}  // namespace

const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kNone:
      return "none";
    case DropReason::kLinkDown:
      return "link-down";
    case DropReason::kBlackhole:
      return "blackhole";
    case DropReason::kCorruption:
      return "corruption";
    case DropReason::kBufferOverflow:
      return "buffer-overflow";
    case DropReason::kAclDeny:
      return "acl-deny";
    case DropReason::kPfcDeadlock:
      return "pfc-deadlock";
  }
  return "?";
}

Fabric::Fabric(const topo::Topology& topo, const routing::EcmpRouter& router,
               sim::Scheduler& sched, FabricConfig cfg)
    : topo_(topo),
      router_(router),
      sched_(sched),
      cfg_(cfg),
      rng_(kSeed),
      links_(topo.num_links()),
      acl_(topo.num_switches()),
      delivery_(topo.num_rnics()),
      step_task_(sched, cfg.step_interval, [this] { step_once(); }),
      offered_(topo.num_links(), 0.0),
      link_step_(topo.num_links()) {
  if (cfg_.step_interval <= 0) {
    throw std::invalid_argument("FabricConfig: step_interval must be > 0");
  }
  init_metrics();
}

void Fabric::init_metrics() {
  auto& reg = telemetry::registry();
  sends_total_ = reg.counter("rpm_fabric_sends_total",
                             "Datagrams injected into the packet plane");
  delivered_total_ = reg.counter("rpm_fabric_delivered_total",
                                 "Datagrams delivered to a destination RNIC");
  fluid_steps_total_ = reg.counter("rpm_fabric_fluid_steps_total",
                                   "Fluid-plane integration steps executed");
  for (std::uint8_t r = 0; r < 7; ++r) {
    drops_total_[r] = reg.counter(
        "rpm_fabric_drops_total", "Datagram drops by reason",
        {{"reason", drop_reason_name(static_cast<DropReason>(r))}});
  }
  link_collector_ = telemetry::CollectorGuard(
      reg, [this](telemetry::MetricsRegistry& r) { collect_link_metrics(r); });
}

void Fabric::count_drop(DropReason r) {
  drops_total_[static_cast<std::uint8_t>(r)].inc();
}

void Fabric::collect_link_metrics(telemetry::MetricsRegistry& reg) {
  // Per-link series are materialized lazily and only for links that have
  // ever queued, paused, or dropped — a healthy idle fabric contributes no
  // per-link series, which keeps snapshots readable on big topologies.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkState& s = links_[i];
    const std::uint64_t drops = s.drops_corrupt + s.drops_overflow +
                                s.drops_down;
    if (s.queue_bytes == 0 && drops == 0 && s.pfc_pause_events == 0 &&
        !s.pfc_paused) {
      continue;
    }
    const std::string& link = topo_.link(LinkId{
        static_cast<std::uint32_t>(i)}).name;
    reg.gauge("rpm_link_queue_bytes", "Current per-link queue depth",
              {{"link", link}})
        .set(static_cast<double>(s.queue_bytes));
    reg.gauge("rpm_link_ecn_mark_prob",
              "Current ECN marking probability on the link", {{"link", link}})
        .set(ecn_mark_prob(s));
    reg.gauge("rpm_link_pfc_paused", "1 while the link asserts PFC PAUSE",
              {{"link", link}})
        .set(s.pfc_paused ? 1.0 : 0.0);
    reg.counter("rpm_link_pfc_pause_total", "PFC PAUSE events on the link",
                {{"link", link}})
        .set(s.pfc_pause_events);
    reg.counter("rpm_link_drops_total", "Per-link packet drops by cause",
                {{"link", link}, {"cause", "down"}})
        .set(s.drops_down);
    reg.counter("rpm_link_drops_total", "Per-link packet drops by cause",
                {{"link", link}, {"cause", "corrupt"}})
        .set(s.drops_corrupt);
    reg.counter("rpm_link_drops_total", "Per-link packet drops by cause",
                {{"link", link}, {"cause", "overflow"}})
        .set(s.drops_overflow);
  }
}

void Fabric::set_delivery_handler(RnicId rnic, DeliveryFn fn) {
  delivery_.at(rnic.value) = std::move(fn);
}

bool Fabric::link_usable(LinkId id) const {
  return links_[id.value].usable();
}

namespace {

TimeNs queue_delay(Bytes queue, double cap) {
  if (cap <= 0.0) return 0;
  return static_cast<TimeNs>(static_cast<double>(queue) / cap * 1e9);
}

/// Both are zero with the same sign. A flow whose rate starts and ends a step
/// as the same zero makes the next step repeat its stats bit for bit.
bool same_zero(double a, double b) {
  return a == 0.0 &&
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void check_demand(double demand_Bps, const char* who) {
  if (!(demand_Bps >= 0.0)) {
    throw std::invalid_argument(std::string(who) + ": negative or NaN demand");
  }
}

}  // namespace

TimeNs Fabric::link_queue_delay(LinkId id) const {
  const LinkState& s = links_[id.value];
  return queue_delay(s.queue_bytes, effective_capacity(topo_.link(id), s));
}

double Fabric::effective_capacity(const topo::Link& l,
                                  const LinkState& s) const {
  return l.capacity_Bps * std::max(0.01, s.service_rate_factor);
}

double Fabric::ecn_mark_prob(const LinkState& s) const {
  if (s.queue_bytes <= kEcnKmin) return 0.0;
  if (s.queue_bytes >= kEcnKmax) return 1.0;
  const double f = static_cast<double>(s.queue_bytes - kEcnKmin) /
                   static_cast<double>(kEcnKmax - kEcnKmin);
  return f * kEcnPmax;
}

LinkState& Fabric::link_state(LinkId id) {
  wake();
  return links_.at(id.value);
}
const LinkState& Fabric::link_state(LinkId id) const {
  return links_.at(id.value);
}

void Fabric::set_cable_up(LinkId any_direction, bool up) {
  wake();
  const topo::Link& l = topo_.link(any_direction);
  links_[l.id.value].admin_up = up;
  links_[l.peer.value].admin_up = up;
  bump_topology_epoch();
}

void Fabric::set_cable_flapping(LinkId any_direction, bool down_phase) {
  // Deliberately no topology-epoch bump: a flap is faster than routing
  // convergence, so flows keep their paths and lose packets in place.
  wake();
  const topo::Link& l = topo_.link(any_direction);
  links_[l.id.value].flapping = down_phase;
  links_[l.peer.value].flapping = down_phase;
}

void Fabric::add_acl_deny(SwitchId sw, IpAddr src, IpAddr dst) {
  acl_.at(sw.value).push_back(AclRule{src, dst});
}

void Fabric::clear_acl(SwitchId sw) { acl_.at(sw.value).clear(); }

bool Fabric::acl_denies(SwitchId sw, const FiveTuple& t) const {
  for (const AclRule& r : acl_[sw.value]) {
    const bool src_match = r.src.value == 0 || r.src == t.src_ip;
    const bool dst_match = r.dst.value == 0 || r.dst == t.dst_ip;
    if (src_match && dst_match) return true;
  }
  return false;
}

routing::Path Fabric::current_path(RnicId src, RnicId dst,
                                   const FiveTuple& tuple) const {
  return router_.resolve(src, dst, tuple,
                         [this](LinkId l) { return link_usable(l); });
}

SendOutcome Fabric::send(const Datagram& dgram) {
  sends_total_.inc();
  SendOutcome out;
  out.path = current_path(dgram.src, dgram.dst, dgram.tuple);
  // Flight-recorder hook: one compare against 0 on the untracked fast path.
  const bool traced = dgram.trace_id != 0 && obs::recorder().enabled();
  const auto trace_drop = [&] {
    if (traced) {
      obs::recorder().record(dgram.trace_id, obs::ProbeEventKind::kFabricDrop,
                             static_cast<std::uint64_t>(out.drop),
                             out.drop_link.value);
    }
  };

  if (!out.path.complete) {
    // Either the very first hop was down, the last hop was down, or ECMP had
    // no live candidate mid-path (blackhole).
    if (out.path.links.empty()) {
      out.drop = DropReason::kLinkDown;
      out.drop_link = topo_.rnic(dgram.src).uplink;  // src edge link down
    } else if (!out.path.switches.empty() &&
               out.path.switches.back() == topo_.rnic(dgram.dst).tor) {
      out.drop = DropReason::kLinkDown;
      out.drop_link = topo_.rnic(dgram.dst).downlink;  // dst edge link down
    } else {
      out.drop = DropReason::kBlackhole;
      out.drop_link = out.path.links.back();
      if (!out.path.switches.empty()) {
        out.drop_switch = out.path.switches.back();
      }
    }
    links_[out.drop_link.value].drops_down++;
    count_drop(out.drop);
    trace_drop();
    return out;
  }

  // Packets with protocol 17 ride the lossless RoCE traffic class; anything
  // else (TCP probes, management traffic) rides a separate lossy queue that
  // is unaffected by RoCE-queue congestion, PFC pauses, deadlocks, or PFC
  // headroom misconfiguration. This is why TCP Pingmesh probes cannot detect
  // RoCE-specific problems (§2.4).
  const bool roce_class = dgram.tuple.protocol == 17;

  TimeNs latency = 0;
  for (std::size_t i = 0; i < out.path.links.size(); ++i) {
    const LinkId lid = out.path.links[i];
    LinkState& s = links_[lid.value];
    const topo::Link& l = topo_.link(lid);

    if (s.flapping) {
      // The port is bouncing: forwarding state still points here, but the
      // packet is lost on the wire.
      out.drop = DropReason::kLinkDown;
      out.drop_link = lid;
      s.drops_down++;
      count_drop(out.drop);
      trace_drop();
      return out;
    }
    if (s.deadlocked && roce_class) {
      out.drop = DropReason::kPfcDeadlock;
      out.drop_link = lid;
      s.drops_down++;
      count_drop(out.drop);
      trace_drop();
      return out;
    }
    if (s.corrupt_prob > 0.0 && rng_.chance(s.corrupt_prob)) {
      out.drop = DropReason::kCorruption;
      out.drop_link = lid;
      s.drops_corrupt++;
      count_drop(out.drop);
      trace_drop();
      return out;
    }
    if (roce_class && s.overflow_drop_frac > 0.0 &&
        rng_.chance(s.overflow_drop_frac)) {
      out.drop = DropReason::kBufferOverflow;
      out.drop_link = lid;
      s.drops_overflow++;
      count_drop(out.drop);
      trace_drop();
      return out;
    }

    const double cap = effective_capacity(l, s);
    const TimeNs serialization =
        static_cast<TimeNs>(static_cast<double>(dgram.size) / cap * 1e9);
    TimeNs hop_delay = l.propagation + serialization;
    if (roce_class) hop_delay += link_queue_delay(lid);
    latency += hop_delay;

    if (traced) {
      // Per-hop traversal: a = link id, b = cumulative one-way latency so
      // far (propagation + serialization + queueing up to this hop).
      obs::recorder().record(dgram.trace_id, obs::ProbeEventKind::kHop,
                             lid.value, static_cast<std::uint64_t>(latency));
    }

    // ACL is evaluated at the switch the packet just arrived at.
    if (i < out.path.switches.size()) {
      const SwitchId sw = out.path.switches[i];
      if (!acl_[sw.value].empty() && acl_denies(sw, dgram.tuple)) {
        out.drop = DropReason::kAclDeny;
        out.drop_switch = sw;
        count_drop(out.drop);
        trace_drop();
        return out;
      }
    }
  }

  out.delivered = true;
  out.latency = latency;
  delivered_total_.inc();
  if (delivery_[dgram.dst.value]) {
    // Copy the datagram into the event; the caller's object may not outlive
    // the flight time. The handler is looked up when the event runs.
    sched_.schedule_at(sched_.now() + latency,
                       [this, dgram] { delivery_[dgram.dst.value](dgram); });
  }
  return out;
}

FlowId Fabric::add_flow(const FlowSpec& spec) {
  check_demand(spec.demand_Bps, "add_flow");
  wake();
  Flow f;
  f.spec = spec;
  f.live = true;
  f.cc_slot = next_cc_slot_++;
  const double line_rate =
      topo_.link(topo_.rnic(spec.src).uplink).capacity_Bps;
  f.rate_Bps = spec.controller
                   ? spec.controller->reset(f.cc_slot, spec.demand_Bps,
                                            line_rate)
                   : spec.demand_Bps;
  resolve_flow_path(f);
  flows_.push_back(std::move(f));
  ++live_flows_;
  return FlowId{static_cast<std::uint32_t>(flows_.size() - 1)};
}

void Fabric::remove_flow(FlowId id) {
  Flow& f = flows_.at(id.value);
  wake();
  if (f.live) {
    f.live = false;
    --live_flows_;
  }
}

void Fabric::set_flow_demand(FlowId id, double demand_Bps) {
  check_demand(demand_Bps, "set_flow_demand");
  Flow& f = flows_.at(id.value);
  wake();
  f.spec.demand_Bps = demand_Bps;
  if (!f.spec.controller) f.rate_Bps = demand_Bps;
}

FlowStats Fabric::flow_stats(FlowId id) const {
  return flows_.at(id.value).stats;
}

const routing::Path& Fabric::flow_path(FlowId id) const {
  return flows_.at(id.value).path;
}

void Fabric::resolve_flow_path(Flow& f) {
  f.path = current_path(f.spec.src, f.spec.dst, f.spec.tuple);
  f.base_rtt = 2 * f.path.propagation_total(topo_);
  f.path_epoch = topology_epoch_;
}

void Fabric::start(TimeNs first_delay) { step_task_.start(first_delay); }
void Fabric::stop() { step_task_.cancel(); }

void Fabric::step_once() {
  fluid_steps_total_.inc();
  // A quiet plane stays quiet: with zero offered load every drained link
  // integrates back to drained whatever its flags, so the step would repeat
  // the entry step's stats and feedback. Its CC calls wait for the next
  // wake. A frozen link keeps its queue, which keeps the plane from going
  // quiet until it recovers and drains.
  if (quiet_) {
    ++quiet_steps_;
    return;
  }
  const double ds = to_seconds(cfg_.step_interval);

  // 1. Refresh stale flow paths (topology changed since last resolve).
  for (Flow& f : flows_) {
    if (f.live && f.path_epoch != topology_epoch_) resolve_flow_path(f);
  }

  // 2. Offered load per link.
  std::fill(offered_.begin(), offered_.end(), 0.0);
  for (const Flow& f : flows_) {
    if (!f.live || !f.path.complete) continue;
    for (LinkId l : f.path.links) offered_[l.value] += f.rate_Bps;
  }

  // 3. Queue integration, ECN, PFC/overflow per link.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    LinkState& s = links_[i];
    const topo::Link& l = topo_.link(LinkId{static_cast<std::uint32_t>(i)});
    const double cap = effective_capacity(l, s);
    if (!s.usable() || s.flapping || s.deadlocked) {
      // No service; queue frozen (a PFC deadlock holds buffers hostage, and
      // a flapping/down port transfers nothing).
      continue;
    }
    const double dq = (offered_[i] - cap) * ds;
    double q = static_cast<double>(s.queue_bytes) + dq;
    if (q < 0.0) q = 0.0;

    s.overflow_drop_frac = 0.0;
    s.pfc_paused = false;
    if (q > static_cast<double>(kBufferBytes)) {
      const double excess = q - static_cast<double>(kBufferBytes);
      q = static_cast<double>(kBufferBytes);
      if (s.pfc_enabled && !s.pfc_misconfigured) {
        // Lossless: push the excess back into upstream egress queues. This
        // is how congestion trees and PFC storms spread hop by hop.
        s.pfc_paused = true;
        ++s.pfc_pause_events;
        const topo::NodeRef upstream_node = l.from;
        if (upstream_node.is_switch()) {
          double feeding_total = 0.0;
          for (LinkId in : topo_.out_links(upstream_node)) {
            // in-links of `upstream_node` are peers of its out-links
            const LinkId in_id = topo_.link(in).peer;
            feeding_total += offered_[in_id.value];
          }
          if (feeding_total > 0.0) {
            for (LinkId out : topo_.out_links(upstream_node)) {
              const LinkId in_id = topo_.link(out).peer;
              const double share = offered_[in_id.value] / feeding_total;
              links_[in_id.value].queue_bytes +=
                  static_cast<Bytes>(excess * share);
            }
          }
        }
      } else {
        // Lossy queue (PFC off or headroom misconfigured): tail drop.
        const double offered_bytes = offered_[i] * ds;
        s.overflow_drop_frac =
            offered_bytes > 0.0 ? std::min(1.0, excess / offered_bytes) : 0.0;
        ++s.drops_overflow;
      }
    } else if (s.queue_bytes > static_cast<Bytes>(
                   kPfcThresholdFrac * static_cast<double>(kBufferBytes)) &&
               s.pfc_enabled && !s.pfc_misconfigured) {
      s.pfc_paused = true;
    }
    s.queue_bytes = static_cast<Bytes>(q);
  }

  // 4. The link values every flow crossing a link reads. Only after step 3
  // is done: a PFC push-back can raise the queue of a link it already passed.
  bool drained = true;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkState& s = links_[i];
    LinkStep& t = link_step_[i];
    t.blocked = !s.usable() || s.flapping || s.deadlocked;
    t.capacity = effective_capacity(
        topo_.link(LinkId{static_cast<std::uint32_t>(i)}), s);
    t.survive = 1.0 - std::min(1.0, s.corrupt_prob + s.overflow_drop_frac);
    t.ecn_survive = 1.0 - ecn_mark_prob(s);
    t.queue_delay = queue_delay(s.queue_bytes, t.capacity);
    drained = drained && s.queue_bytes == 0 && !s.pfc_paused &&
              s.overflow_drop_frac == 0.0;
  }

  // 5. Per-flow achieved rate, loss, queue delay; CC update.
  bool quiet = drained;
  for (Flow& f : flows_) {
    if (!f.live) continue;
    CcFeedback fb;
    if (walk_flow(f, f.stats, fb) && f.spec.controller) {
      f.rate_Bps = std::clamp(
          f.spec.controller->update(f.cc_slot, fb, f.rate_Bps), 0.0,
          f.spec.demand_Bps);
    }
    // The next step repeats this one only if no demand can raise the rate
    // and the rate started and ended this step at the same zero.
    quiet = quiet && f.spec.demand_Bps == 0.0 &&
            same_zero(f.rate_Bps, f.stats.offered_Bps);
  }
  quiet_ = quiet;
}

bool Fabric::walk_flow(const Flow& f, FlowStats& st, CcFeedback& fb) const {
  st = FlowStats{};
  st.offered_Bps = f.rate_Bps;
  if (!f.path.complete) {
    st.loss_rate = 1.0;
    return false;
  }
  double factor = 1.0;
  double survive = 1.0;
  double ecn_survive = 1.0;
  TimeNs qdelay = 0;
  double bottleneck_cap = 0.0;
  for (LinkId lid : f.path.links) {
    const LinkStep& t = link_step_[lid.value];
    if (t.blocked) {
      st.loss_rate = 1.0;
      return false;
    }
    const double cap = t.capacity;
    if (bottleneck_cap == 0.0 || cap < bottleneck_cap) bottleneck_cap = cap;
    const double arrival = offered_[lid.value];
    if (arrival > cap) factor = std::min(factor, cap / arrival);
    survive *= t.survive;
    ecn_survive *= t.ecn_survive;
    qdelay += t.queue_delay;
  }
  st.loss_rate = 1.0 - survive;
  st.achieved_Bps = f.rate_Bps * factor * survive;
  st.queue_delay = qdelay;
  fb.ecn_fraction = 1.0 - ecn_survive;
  fb.queue_delay = qdelay;
  fb.base_rtt = f.base_rtt;
  fb.achieved_Bps = st.achieved_Bps;
  fb.bottleneck_capacity_Bps = bottleneck_cap;
  fb.dt = cfg_.step_interval;
  return true;
}

void Fabric::replay_quiet_steps() {
  // Every skipped step would have handed each fed CC flow the feedback the
  // entry step computed (no input has changed since, so `link_step_` and
  // `offered_` still hold its values) and clamped the result to the zero
  // demand. Controllers keep state per flow slot, so replaying flow by flow
  // is exact.
  if (quiet_steps_ > 0) {
    for (const Flow& f : flows_) {
      if (!f.live || !f.spec.controller) continue;
      FlowStats st;
      CcFeedback fb;
      if (!walk_flow(f, st, fb)) continue;
      for (std::uint64_t i = 0; i < quiet_steps_; ++i) {
        f.spec.controller->update(f.cc_slot, fb, f.rate_Bps);
      }
    }
  }
  quiet_ = false;
  quiet_steps_ = 0;
}

}  // namespace rpm::fabric
