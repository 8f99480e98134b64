#include "traffic/dml.h"

#include <algorithm>
#include <stdexcept>

namespace rpm::traffic {

namespace {

constexpr TimeNs kPollInterval = msec(1);  // progress-integration cadence
// Worker CPU load while a checkpoint's TCP uploads run.
constexpr double kCheckpointCpuLoad = 0.96;

}  // namespace

const char* comm_pattern_name(CommPattern p) {
  switch (p) {
    case CommPattern::kAllReduceRing:
      return "allreduce-ring";
    case CommPattern::kAllToAll:
      return "all2all";
    case CommPattern::kIncast:
      return "incast";
  }
  return "?";
}

DmlService::DmlService(host::Cluster& cluster, DmlConfig cfg)
    : cluster_(cluster),
      cfg_(std::move(cfg)),
      poll_task_(cluster.scheduler(), kPollInterval,
                 [this] { poll_progress(); }),
      keepalive_task_(cluster.scheduler(),
                      cfg_.keepalive_interval > 0 ? cfg_.keepalive_interval
                                                  : msec(100),
                      [this] { post_keepalives(); }) {
  if (cfg_.workers.size() < 2) {
    throw std::invalid_argument("DmlService: need at least 2 workers");
  }
  if (cfg_.per_flow_gbps <= 0.0 || cfg_.comm_bytes <= 0) {
    throw std::invalid_argument("DmlService: invalid traffic parameters");
  }
  build_pairs();
}

DmlService::~DmlService() {
  if (running_) stop();
}

void DmlService::build_pairs() {
  const auto& w = cfg_.workers;
  switch (cfg_.pattern) {
    case CommPattern::kAllReduceRing:
      for (std::size_t i = 0; i < w.size(); ++i) {
        pairs_.emplace_back(w[i], w[(i + 1) % w.size()]);
      }
      break;
    case CommPattern::kAllToAll:
      for (std::size_t i = 0; i < w.size(); ++i) {
        for (std::size_t j = 0; j < w.size(); ++j) {
          if (i != j) pairs_.emplace_back(w[i], w[j]);
        }
      }
      break;
    case CommPattern::kIncast:
      for (std::size_t i = 1; i < w.size(); ++i) {
        pairs_.emplace_back(w[i], w[0]);
      }
      break;
  }
}

void DmlService::start() {
  if (running_) return;
  running_ = true;
  failed_ = false;
  const auto& topo = cluster_.topology();

  std::uint16_t port = cfg_.base_port;
  for (const auto& [src, dst] : pairs_) {
    DmlConnection c;
    c.src = src;
    c.dst = dst;
    c.tuple.src_ip = topo.rnic(src).ip;
    c.tuple.dst_ip = topo.rnic(dst).ip;
    c.tuple.src_port = port++;

    // Real RC QPs on both ends so modify_qp/destroy_qp tracepoints fire
    // with this connection's 5-tuple.
    auto src_ctx = cluster_.open_device(src, cfg_.service);
    auto dst_ctx = cluster_.open_device(dst, cfg_.service);
    const std::size_t idx = conns_.size();

    rnic::QpConfig scfg;
    scfg.type = rnic::QpType::kRC;
    scfg.max_retries = cfg_.rc_max_retries;
    scfg.retransmit_timeout = cfg_.rc_retransmit_timeout;
    scfg.on_cqe = [](const rnic::Cqe&) {};
    scfg.on_broken = [this, idx] {
      conns_[idx].broken = true;
      failed_ = true;  // one broken connection fails the training task
      set_all_demands(0.0);  // the NCCL process aborts; traffic stops
    };
    c.src_qpn = src_ctx.create_qp(scfg);

    rnic::QpConfig dcfg;
    dcfg.type = rnic::QpType::kRC;
    dcfg.on_cqe = [](const rnic::Cqe&) {};
    c.dst_qpn = dst_ctx.create_qp(dcfg);

    src_ctx.modify_qp_connect(c.src_qpn, rnic::gid_of(dst), c.dst_qpn,
                              c.tuple.src_port);
    dst_ctx.modify_qp_connect(c.dst_qpn, rnic::gid_of(src), c.src_qpn,
                              c.tuple.src_port);

    // The bulk data plane: a fluid flow sharing the connection's 5-tuple.
    fabric::FlowSpec fs;
    fs.src = src;
    fs.dst = dst;
    fs.tuple = c.tuple;
    fs.demand_Bps = 0.0;  // idle until the first comm phase
    fs.controller = cfg_.controller;
    c.flow = cluster_.fabric().add_flow(fs);

    conns_.push_back(c);
  }
  moved_.assign(conns_.size(), 0);
  last_checkpoint_ = cluster_.scheduler().now();
  poll_task_.start();
  keepalive_task_.start();
  begin_iteration();
}

void DmlService::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;
  poll_task_.cancel();
  keepalive_task_.cancel();
  set_worker_cpu_load(0.2);
  for (DmlConnection& c : conns_) {
    cluster_.fabric().remove_flow(c.flow);
    auto src_ctx = cluster_.open_device(c.src);
    auto dst_ctx = cluster_.open_device(c.dst);
    if (src_ctx.device().has_qp(c.src_qpn)) src_ctx.destroy_qp(c.src_qpn);
    if (dst_ctx.device().has_qp(c.dst_qpn)) dst_ctx.destroy_qp(c.dst_qpn);
  }
  conns_.clear();
  phase_ = Phase::kIdle;
}

void DmlService::set_compute_slowdown(double factor) {
  if (factor < 1.0) {
    throw std::invalid_argument("set_compute_slowdown: factor must be >= 1");
  }
  compute_slowdown_ = factor;
}

TimeNs DmlService::ideal_iteration_time() const {
  const double rate = gbps_to_Bps(cfg_.per_flow_gbps);
  const auto comm =
      static_cast<TimeNs>(static_cast<double>(cfg_.comm_bytes) / rate * 1e9);
  return cfg_.compute_time + comm;
}

void DmlService::set_all_demands(double bps) {
  for (const DmlConnection& c : conns_) {
    cluster_.fabric().set_flow_demand(c.flow, c.broken ? 0.0 : bps);
  }
}

void DmlService::set_worker_cpu_load(double load) {
  // Each distinct worker host gets the load (idempotent per host).
  std::vector<HostId> hosts;
  for (RnicId r : cfg_.workers) {
    hosts.push_back(cluster_.topology().rnic(r).host);
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  for (HostId h : hosts) {
    if (!cluster_.host(h).is_down()) cluster_.host(h).set_cpu_load(load);
  }
}

void DmlService::begin_iteration() {
  if (!running_ || failed_) return;
  // Checkpoint due?
  if (cfg_.checkpoint_interval > 0 &&
      cluster_.scheduler().now() - last_checkpoint_ >=
          cfg_.checkpoint_interval) {
    begin_checkpoint();
    return;
  }
  phase_ = Phase::kCompute;
  iter_start_ = cluster_.scheduler().now();
  set_all_demands(0.0);
  const auto compute = static_cast<TimeNs>(
      static_cast<double>(cfg_.compute_time) * compute_slowdown_);
  const std::uint64_t ep = epoch_;
  cluster_.scheduler().schedule_after(compute, [this, ep] {
    if (running_ && ep == epoch_) begin_comm();
  });
}

void DmlService::begin_comm() {
  phase_ = Phase::kComm;
  std::fill(moved_.begin(), moved_.end(), 0);
  last_poll_ = cluster_.scheduler().now();
  set_all_demands(gbps_to_Bps(cfg_.per_flow_gbps));
}

void DmlService::poll_progress() {
  if (phase_ != Phase::kComm || failed_) return;
  const TimeNs now = cluster_.scheduler().now();
  const double dt = to_seconds(now - last_poll_);
  last_poll_ = now;
  if (dt <= 0.0) return;
  bool all_done = true;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].broken) continue;  // broken == failed task anyway
    const auto st = cluster_.fabric().flow_stats(conns_[i].flow);
    moved_[i] += static_cast<Bytes>(st.achieved_Bps * dt);
    if (moved_[i] < cfg_.comm_bytes) all_done = false;
  }
  if (all_done) finish_iteration();
}

void DmlService::finish_iteration() {
  ++iters_;
  const TimeNs actual = cluster_.scheduler().now() - iter_start_;
  // Relative to the *fault-free* ideal. A compute slowdown is included in
  // `actual` only, so a compute bug drags the metric down just like a
  // network problem would at coarse granularity — the Figure 9 confusion.
  last_completed_rel_ = std::min(
      1.0, static_cast<double>(ideal_iteration_time()) /
               std::max<double>(1.0, static_cast<double>(actual)));
  begin_iteration();
}

void DmlService::begin_checkpoint() {
  phase_ = Phase::kCheckpoint;
  last_checkpoint_ = cluster_.scheduler().now();
  iter_start_ = cluster_.scheduler().now();
  set_all_demands(0.0);  // RoCE network idle while TCP uploads run
  set_worker_cpu_load(kCheckpointCpuLoad);
  const std::uint64_t ep = epoch_;
  cluster_.scheduler().schedule_after(cfg_.checkpoint_duration, [this, ep] {
    if (running_ && ep == epoch_) end_checkpoint();
  });
}

void DmlService::end_checkpoint() {
  set_worker_cpu_load(0.3);
  phase_ = Phase::kIdle;
  begin_iteration();
}

void DmlService::post_keepalives() {
  if (failed_ || !running_) return;
  if (phase_ != Phase::kComm) return;  // messages fly during communication
  for (DmlConnection& c : conns_) {
    if (c.broken) continue;
    auto ctx = cluster_.open_device(c.src);
    if (!ctx.device().has_qp(c.src_qpn)) continue;
    if (ctx.device().qp_state(c.src_qpn) != rnic::QpState::kReadyToSend) {
      continue;
    }
    ctx.post_send(c.src_qpn, 4096, /*payload=*/0, next_keepalive_wr_++);
  }
}

double DmlService::relative_throughput() const {
  if (failed_) return 0.0;
  if (!running_) return 0.0;
  double rel = last_completed_rel_;
  if (phase_ == Phase::kComm || phase_ == Phase::kCompute) {
    const TimeNs elapsed = cluster_.scheduler().now() - iter_start_;
    const TimeNs ideal = ideal_iteration_time();
    if (elapsed > ideal) {
      rel = std::min(rel, static_cast<double>(ideal) /
                              static_cast<double>(elapsed));
    }
  }
  return rel;
}

double DmlService::avg_network_throughput_Bps() const {
  if (conns_.empty()) return 0.0;
  double sum = 0.0;
  for (const DmlConnection& c : conns_) {
    sum += cluster_.fabric().flow_stats(c.flow).achieved_Bps;
  }
  return sum / static_cast<double>(conns_.size());
}

}  // namespace rpm::traffic
