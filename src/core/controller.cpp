#include "core/controller.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/flight_recorder.h"

namespace rpm::core {

namespace {

double binomial(std::uint32_t n, std::uint32_t k) {
  // Exact enough in double for n <= ~1000.
  double r = 1.0;
  for (std::uint32_t i = 1; i <= k; ++i) {
    r *= static_cast<double>(n - k + i) / static_cast<double>(i);
  }
  return r;
}

/// P(k tuples do NOT cover all N paths) by inclusion-exclusion.
double uncovered_probability(std::uint32_t n, std::uint32_t k) {
  double sum = 0.0;
  for (std::uint32_t i = 1; i <= n; ++i) {
    const double term =
        binomial(n, i) *
        std::pow(1.0 - static_cast<double>(i) / static_cast<double>(n),
                 static_cast<double>(k));
    sum += (i % 2 == 1) ? term : -term;
  }
  return std::max(0.0, sum);
}

}  // namespace

std::uint32_t equation1_min_tuples(std::uint32_t num_paths,
                                   double coverage_p) {
  if (num_paths == 0) throw std::invalid_argument("equation1: N must be > 0");
  if (coverage_p <= 0.0 || coverage_p >= 1.0) {
    throw std::invalid_argument("equation1: P must be in (0, 1)");
  }
  if (num_paths == 1) return 1;
  const double budget = 1.0 - coverage_p;
  for (std::uint32_t k = num_paths;; ++k) {
    if (uncovered_probability(num_paths, k) <= budget) return k;
    if (k > num_paths * 1000) {
      throw std::runtime_error("equation1: failed to converge");
    }
  }
}

std::uint32_t count_parallel_paths(const routing::EcmpRouter& router,
                                   SwitchId src_tor, SwitchId dst_tor) {
  if (src_tor == dst_tor) return 1;
  std::uint32_t product = 1;
  SwitchId cur = src_tor;
  for (int hop = 0; hop < 16; ++hop) {
    const auto& cand = router.candidates(cur, dst_tor);
    if (cand.empty()) {
      throw std::runtime_error("count_parallel_paths: unreachable ToR");
    }
    product *= static_cast<std::uint32_t>(cand.size());
    cur = router.topology().link(cand.front()).to.as_switch();
    if (cur == dst_tor) return product;
  }
  throw std::runtime_error("count_parallel_paths: path too long");
}

Controller::Controller(const topo::Topology& topo,
                       const routing::EcmpRouter& router, ControllerConfig cfg)
    : topo_(topo), router_(router), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.per_link_probes_per_sec <= 0.0 ||
      cfg_.tormesh_probes_per_sec <= 0.0) {
    throw std::invalid_argument("ControllerConfig: probe rates must be > 0");
  }
  auto& reg = telemetry::registry();
  metrics_.registrations = reg.counter("rpm_controller_registrations_total",
                                       "Agent (re)registrations processed");
  metrics_.registered_agents = reg.gauge("rpm_controller_registered_agents",
                                         "Hosts with a live registration lease");
  const char* kinds[2] = {"tor-mesh", "inter-tor"};
  for (int k = 0; k < 2; ++k) {
    metrics_.pinglist_requests[k] =
        reg.counter("rpm_controller_pinglist_requests_total",
                    "Pinglists served to Agents", {{"kind", kinds[k]}});
    metrics_.pinglist_entries[k] =
        reg.histogram("rpm_controller_pinglist_entries",
                      "Entries per generated pinglist", {{"kind", kinds[k]}});
  }
  metrics_.plan_build_ns = reg.histogram(
      "rpm_controller_plan_build_ns",
      "Wall-clock cost of Equation-1 inter-ToR planning");
  metrics_.rotations = reg.counter("rpm_controller_rotations_total",
                                   "Inter-ToR tuple rotations executed");
  build_intertor_plan();
}

bool Controller::register_agent(HostId host,
                                const std::vector<RnicCommInfo>& rnics) {
  if (down_) return false;  // a crashed process accepts nothing
  for (const RnicCommInfo& info : rnics) {
    if (topo_.rnic(info.rnic).host != host) {
      throw std::invalid_argument(
          "register_agent: RNIC does not belong to this host");
    }
    registry_[info.rnic.value] = info;
  }
  registered_hosts_.insert(host.value);
  metrics_.registrations.inc();
  metrics_.registered_agents.set(
      static_cast<double>(registered_hosts_.size()));
  return true;
}

HeartbeatAck Controller::heartbeat(HostId host) const {
  HeartbeatAck ack;
  ack.controller_epoch = epoch_;
  ack.known = !down_ && registered_hosts_.contains(host.value);
  return ack;
}

void Controller::crash() {
  down_ = true;
  // A process crash takes the in-memory registry with it; Agents discover
  // the loss through missed heartbeats and re-register after restart().
  registry_.clear();
  registered_hosts_.clear();
  metrics_.registered_agents.set(0.0);
  obs::recorder().marker("controller-crash", epoch_);
}

void Controller::restart() {
  if (!down_) return;
  down_ = false;
  ++epoch_;
  obs::recorder().marker("controller-restart", epoch_);
}

void Controller::promote(std::uint64_t new_epoch) {
  // restart()'s known=false contract, with an assigned epoch: clear the
  // registry even though a warm standby's is already empty (promote() must
  // also work on a member that once served as primary), come up, and fence
  // everything the deposed primary might still emit.
  registry_.clear();
  registered_hosts_.clear();
  metrics_.registered_agents.set(0.0);
  down_ = false;
  epoch_ = new_epoch;
  obs::recorder().marker("controller-promote", epoch_);
}

std::optional<RnicCommInfo> Controller::comm_info(RnicId rnic) const {
  const auto it = registry_.find(rnic.value);
  if (it == registry_.end()) return std::nullopt;
  return it->second;
}

std::optional<RnicCommInfo> Controller::comm_info_by_ip(IpAddr ip) const {
  // IPs are topology-stable, so resolve through the topology.
  try {
    return comm_info(topo_.rnic_by_ip(ip));
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

Pinglist Controller::tormesh_pinglist(RnicId rnic) const {
  const topo::RnicInfo& self = topo_.rnic(rnic);
  Pinglist out;
  for (RnicId other : topo_.rnics_under_tor(self.tor)) {
    if (other == rnic) continue;
    const auto info = comm_info(other);
    if (!info) continue;  // never registered: cannot be probed yet
    PinglistEntry e;
    e.target = other;
    e.target_gid = info->gid;
    e.target_qpn = info->qpn;
    e.tuple.src_ip = self.ip;
    e.tuple.dst_ip = info->ip;
    // Stable per-pair port: ToR-mesh paths have no ECMP anyway.
    e.tuple.src_port = static_cast<std::uint16_t>(
        29000 + (rnic.value * 131 + other.value * 31) % 1000);
    e.kind = ProbeKind::kTorMesh;
    out.entries.push_back(e);
  }
  // One probe every 1/rate seconds, cycling over targets (§5: 10 pps).
  out.probe_interval =
      static_cast<TimeNs>(1e9 / cfg_.tormesh_probes_per_sec);
  metrics_.pinglist_requests[0].inc();
  metrics_.pinglist_entries[0].observe(
      static_cast<double>(out.entries.size()));
  return out;
}

std::uint32_t Controller::tuples_for_tor(SwitchId tor) const {
  const auto it = plans_.find(tor.value);
  if (it == plans_.end()) throw std::out_of_range("tuples_for_tor: not a ToR");
  return it->second.k;
}

Controller::InterTorTuple Controller::make_tuple(SwitchId tor, Rng& rng) {
  const auto& local = topo_.rnics_under_tor(tor);
  const auto& tors = topo_.tor_switches();
  InterTorTuple t;
  t.src = local[rng.index(local.size())];
  // Random destination under a different ToR.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const SwitchId dst_tor = tors[rng.index(tors.size())];
    if (dst_tor == tor) continue;
    const auto& remote = topo_.rnics_under_tor(dst_tor);
    if (remote.empty()) continue;
    t.dst = remote[rng.index(remote.size())];
    break;
  }
  t.src_port = static_cast<std::uint16_t>(cfg_.intertor_port_base +
                                          (next_port_++ % 20000));
  return t;
}

void Controller::build_intertor_plan() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto& tors = topo_.tor_switches();
  if (tors.size() < 2) return;  // single-ToR cluster: nothing to plan
  for (SwitchId tor : tors) {
    TorPlan plan;
    for (SwitchId other : tors) {
      if (other == tor) continue;
      plan.parallel_paths = std::max(
          plan.parallel_paths, count_parallel_paths(router_, tor, other));
    }
    plan.k = equation1_min_tuples(plan.parallel_paths,
                                  cfg_.coverage_probability);
    for (std::uint32_t i = 0; i < plan.k; ++i) {
      plan.tuples.push_back(make_tuple(tor, rng_));
    }
    // Cadence: k tuples spread over N parallel paths; to give every link
    // >= per_link_probes_per_sec, each tuple fires at rate * N / k.
    const double per_tuple_hz =
        cfg_.per_link_probes_per_sec *
        static_cast<double>(plan.parallel_paths) /
        static_cast<double>(plan.k);
    plan.per_tuple_interval =
        static_cast<TimeNs>(1e9 / std::max(0.1, per_tuple_hz));
    plans_[tor.value] = std::move(plan);
  }
  metrics_.plan_build_ns.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

Pinglist Controller::intertor_pinglist(RnicId rnic) const {
  const topo::RnicInfo& self = topo_.rnic(rnic);
  Pinglist out;
  const auto it = plans_.find(self.tor.value);
  if (it == plans_.end()) return out;
  const TorPlan& plan = it->second;
  for (const InterTorTuple& t : plan.tuples) {
    if (t.src != rnic) continue;
    const auto info = comm_info(t.dst);
    if (!info) continue;
    PinglistEntry e;
    e.target = t.dst;
    e.target_gid = info->gid;
    e.target_qpn = info->qpn;
    e.tuple.src_ip = self.ip;
    e.tuple.dst_ip = info->ip;
    e.tuple.src_port = t.src_port;
    e.kind = ProbeKind::kInterTor;
    out.entries.push_back(e);
  }
  // The Agent cycles its entries with one probe per interval; to keep each
  // tuple at per_tuple_interval, the list interval shrinks with list size.
  const auto n = static_cast<TimeNs>(std::max<std::size_t>(
      1, out.entries.size()));
  out.probe_interval = std::max<TimeNs>(usec(100),
                                        plan.per_tuple_interval / n);
  metrics_.pinglist_requests[1].inc();
  metrics_.pinglist_entries[1].observe(
      static_cast<double>(out.entries.size()));
  return out;
}

void Controller::rotate_intertor_tuples() {
  metrics_.rotations.inc();
  for (auto& [tor_value, plan] : plans_) {
    const auto n = static_cast<std::size_t>(std::ceil(
        cfg_.rotate_fraction * static_cast<double>(plan.tuples.size())));
    for (std::size_t i = 0; i < n && !plan.tuples.empty(); ++i) {
      const std::size_t victim = rng_.index(plan.tuples.size());
      plan.tuples[victim] = make_tuple(SwitchId{tor_value}, rng_);
    }
  }
}

PinglistPullResponse serve_pinglist_pull(const Controller& controller,
                                         const PinglistPullRequest& req) {
  PinglistPullResponse rsp;
  rsp.rnics.reserve(req.rnics.size());
  for (RnicId r : req.rnics) {
    PinglistPullResponse::PerRnic per;
    per.rnic = r;
    per.tormesh = controller.tormesh_pinglist(r);
    per.intertor = controller.intertor_pinglist(r);
    rsp.rnics.push_back(std::move(per));
  }
  rsp.comm.reserve(req.comm_targets.size());
  for (RnicId r : req.comm_targets) {
    if (const auto info = controller.comm_info(r)) rsp.comm.push_back(*info);
  }
  rsp.controller_epoch = controller.epoch();
  return rsp;
}

ControllerGroup::ControllerGroup(const topo::Topology& topo,
                                 const routing::EcmpRouter& router,
                                 sim::Scheduler& sched,
                                 ControllerConfig ccfg, Config cfg)
    : sched_(sched), cfg_(cfg) {
  members_.push_back(std::make_unique<Controller>(topo, router, ccfg));
  if (cfg_.standby) {
    // Same config => identical Equation-1 plans and pinglists; the standby
    // differs only in registry content (empty until promoted) and epoch.
    members_.push_back(std::make_unique<Controller>(topo, router, ccfg));
  }
  crashed_.assign(members_.size(), false);
  if (cfg_.standby) {
    // Metric series exist only in replicated deployments so a flat run's
    // telemetry output is byte-identical to the pre-group code.
    auto& reg = telemetry::registry();
    epoch_gauge_ = reg.gauge("rpm_controller_epoch",
                             "Epoch of the active Controller");
    failovers_total_ = reg.counter("rpm_controller_failovers_total",
                                   "Standby promotions performed");
    epoch_gauge_.set(static_cast<double>(active().epoch()));
    monitor_ = std::make_unique<sim::PeriodicTask>(
        sched_, cfg_.check_interval, [this] { check_failover(); });
    monitor_->start(cfg_.check_interval);
  }
}

void ControllerGroup::crash_active() {
  if (crashed_[active_]) return;
  members_[active_]->crash();
  crashed_[active_] = true;
  crash_time_ = sched_.now();
}

void ControllerGroup::restart_crashed() {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!crashed_[i]) continue;
    members_[i]->restart();
    crashed_[i] = false;
  }
}

void ControllerGroup::check_failover() {
  if (!crashed_[active_]) return;
  if (sched_.now() < crash_time_ + cfg_.failover_delay) return;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (crashed_[i]) continue;
    // New epoch dominates every epoch any member ever stamped, including
    // the deposed primary's — responses it left in flight are fenced out.
    std::uint64_t max_epoch = 0;
    for (const auto& m : members_) {
      max_epoch = std::max(max_epoch, m->epoch());
    }
    members_[i]->promote(max_epoch + 1);
    active_ = i;
    ++failovers_;
    epoch_gauge_.set(static_cast<double>(max_epoch + 1));
    failovers_total_.inc();
    obs::recorder().marker("controller-failover", max_epoch + 1, i);
    if (on_failover_) on_failover_(*members_[i]);
    return;
  }
}

}  // namespace rpm::core
