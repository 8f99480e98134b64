#include "rnic/rnic.h"

#include <algorithm>
#include <stdexcept>

namespace rpm::rnic {

namespace {
constexpr std::uint64_t kGidBase = 0xfe80'0000'0000'0000ULL;
// DMA latency at full PCIe width: host memory -> wire, and wire -> host.
constexpr TimeNs kTxDma = nsec(600);
constexpr TimeNs kRxDma = nsec(600);
}  // namespace

const char* qp_type_name(QpType t) {
  switch (t) {
    case QpType::kRC:
      return "RC";
    case QpType::kUC:
      return "UC";
    case QpType::kUD:
      return "UD";
  }
  return "?";
}

Gid gid_of(RnicId id) { return Gid{kGidBase + id.value + 1}; }

std::optional<RnicId> rnic_of_gid(Gid gid) {
  if (gid.value <= kGidBase) return std::nullopt;
  return RnicId{static_cast<std::uint32_t>(gid.value - kGidBase - 1)};
}

RnicDevice::RnicDevice(RnicId id, fabric::Fabric& fabric,
                       sim::Scheduler& sched, sim::DeviceClock clock,
                       Rng rng, RnicParams params)
    : id_(id),
      fabric_(fabric),
      sched_(sched),
      clock_(clock),
      rng_(rng),
      params_(params) {
  fabric_.set_delivery_handler(
      id_, [this](const fabric::Datagram& d) { on_datagram(d); });
}

Gid RnicDevice::gid() const { return gid_of(id_); }

IpAddr RnicDevice::ip() const { return fabric_.topology().rnic(id_).ip; }

TimeNs RnicDevice::tx_delay() const {
  return static_cast<TimeNs>(
      static_cast<double>(kTxDma) / pcie_factor_);
}

TimeNs RnicDevice::rx_delay() const {
  return static_cast<TimeNs>(
      static_cast<double>(kRxDma) / pcie_factor_);
}

Qpn RnicDevice::create_qp(QpConfig cfg) {
  if (!cfg.on_cqe) throw std::invalid_argument("create_qp: on_cqe required");
  const Qpn qpn{next_qpn_++};
  Qp qp;
  qp.qpn = qpn;
  qp.cfg = std::move(cfg);
  qp.state = qp.cfg.type == QpType::kUD ? QpState::kReadyToSend
                                        : QpState::kReset;
  qps_.emplace(qpn.value, std::move(qp));
  return qpn;
}

void RnicDevice::destroy_qp(Qpn qpn) {
  qps_.erase(qpn.value);
  qpc_lru_.erase(std::remove(qpc_lru_.begin(), qpc_lru_.end(), qpn),
                 qpc_lru_.end());
}

bool RnicDevice::has_qp(Qpn qpn) const { return qps_.contains(qpn.value); }

QpState RnicDevice::qp_state(Qpn qpn) const {
  const auto it = qps_.find(qpn.value);
  if (it == qps_.end()) throw std::out_of_range("qp_state: unknown QPN");
  return it->second.state;
}

RnicDevice::Qp* RnicDevice::find_qp(Qpn qpn) {
  const auto it = qps_.find(qpn.value);
  return it == qps_.end() ? nullptr : &it->second;
}

void RnicDevice::connect_qp(Qpn qpn, Gid remote_gid, Qpn remote_qpn,
                            std::uint16_t src_port) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("connect_qp: unknown QPN");
  if (qp->cfg.type == QpType::kUD) {
    throw std::logic_error("connect_qp: UD QPs are connectionless");
  }
  qp->remote_gid = remote_gid;
  qp->remote_qpn = remote_qpn;
  qp->src_port = src_port;
  qp->state = QpState::kReadyToSend;
}

TimeNs RnicDevice::qpc_touch(Qpn qpn) {
  const auto it = std::find(qpc_lru_.begin(), qpc_lru_.end(), qpn);
  if (it != qpc_lru_.end()) {
    // hit: move to hottest position
    qpc_lru_.erase(it);
    qpc_lru_.push_back(qpn);
    ++counters_.qpc_cache_hits;
    return 0;
  }
  ++counters_.qpc_cache_misses;
  qpc_lru_.push_back(qpn);
  if (qpc_lru_.size() > params_.qpc_cache_slots) {
    qpc_lru_.erase(qpc_lru_.begin());  // evict coldest
  }
  return params_.qpc_miss_penalty;
}

void RnicDevice::wire_send(Qp& qp, fabric::Datagram d, std::uint64_t wr_id,
                           bool gen_send_cqe_now) {
  // DMA + (possible) QPC miss stall, then the packet hits the wire.
  const TimeNs stall = qpc_touch(qp.qpn);
  const Qpn qpn = qp.qpn;
  sched_.schedule_after(tx_delay() + stall, [this, d = std::move(d), wr_id,
                                             qpn, gen_send_cqe_now] {
    Qp* q = find_qp(qpn);
    if (q == nullptr || down_ || gid_index_missing_ || route_missing_) {
      return;  // QP destroyed or device unable to transmit
    }
    fabric_.send(d);
    ++counters_.tx_packets;
    if (gen_send_cqe_now) {
      // UD/UC semantics: CQE as soon as the message is on the wire (§4.2.1).
      Cqe cqe;
      cqe.qpn = qpn;
      cqe.wr_id = wr_id;
      cqe.is_send = true;
      cqe.timestamp = rnic_now();
      cqe.byte_len = d.size;
      q->cfg.on_cqe(cqe);
    }
  });
}

void RnicDevice::post_send_ud(Qpn qpn, Gid dst_gid, Qpn dst_qpn,
                              std::uint16_t src_port, Bytes size,
                              std::any payload, std::uint64_t wr_id,
                              std::uint64_t trace_id) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) throw std::out_of_range("post_send_ud: unknown QPN");
  if (qp->cfg.type != QpType::kUD) {
    throw std::logic_error("post_send_ud: not a UD QP");
  }
  if (down_ || gid_index_missing_ || route_missing_) return;  // silently lost

  const auto dst = rnic_of_gid(dst_gid);
  if (!dst) return;  // unknown GID: unroutable

  fabric::Datagram d;
  d.src = id_;
  d.dst = *dst;
  d.tuple.src_ip = ip();
  d.tuple.dst_ip = fabric_.topology().rnic(*dst).ip;
  d.tuple.src_port = src_port;
  d.size = size;
  d.src_qpn = qpn;
  d.dst_qpn = dst_qpn;
  d.trace_id = trace_id;
  d.payload = std::move(payload);
  wire_send(*qp, std::move(d), wr_id, /*gen_send_cqe_now=*/true);
}

void RnicDevice::post_send_connected(Qpn qpn, Bytes size, std::any payload,
                                     std::uint64_t wr_id) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) {
    throw std::out_of_range("post_send_connected: unknown QPN");
  }
  if (qp->cfg.type == QpType::kUD) {
    throw std::logic_error("post_send_connected: UD QP needs post_send_ud");
  }
  if (qp->state != QpState::kReadyToSend) {
    throw std::logic_error("post_send_connected: QP not connected");
  }
  if (down_ || gid_index_missing_ || route_missing_) return;

  if (qp->cfg.type == QpType::kRC) {
    qp->inflight.emplace(wr_id, PendingRcSend{wr_id, size, payload, 0});
    rc_transmit(qpn, wr_id);
    return;
  }

  // UC: fire and forget, send CQE at wire time, no reliability.
  const auto dst = rnic_of_gid(qp->remote_gid);
  if (!dst) return;
  fabric::Datagram d;
  d.src = id_;
  d.dst = *dst;
  d.tuple.src_ip = ip();
  d.tuple.dst_ip = fabric_.topology().rnic(*dst).ip;
  d.tuple.src_port = qp->src_port;
  d.size = size;
  d.src_qpn = qpn;
  d.dst_qpn = qp->remote_qpn;
  d.payload = std::move(payload);
  wire_send(*qp, std::move(d), wr_id, /*gen_send_cqe_now=*/true);
}

void RnicDevice::rc_transmit(Qpn qpn, std::uint64_t wr_id) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return;
  auto it = qp->inflight.find(wr_id);
  if (it == qp->inflight.end()) return;  // already ACKed
  PendingRcSend& p = it->second;
  ++p.attempts;
  if (p.attempts > 1) ++counters_.rc_retransmits;

  const auto dst = rnic_of_gid(qp->remote_gid);
  if (!dst) return;
  fabric::Datagram d;
  d.src = id_;
  d.dst = *dst;
  d.tuple.src_ip = ip();
  d.tuple.dst_ip = fabric_.topology().rnic(*dst).ip;
  d.tuple.src_port = qp->src_port;
  d.size = p.size;
  d.src_qpn = qpn;
  d.dst_qpn = qp->remote_qpn;
  d.wr_tag = wr_id;
  d.payload = p.payload;
  // RC semantics: NO send CQE yet; it is generated when the hardware ACK
  // arrives (this is precisely why RC cannot observe timestamp ②).
  wire_send(*qp, std::move(d), wr_id, /*gen_send_cqe_now=*/false);
  arm_rc_timeout(qpn, wr_id);
}

void RnicDevice::arm_rc_timeout(Qpn qpn, std::uint64_t wr_id) {
  Qp* qp = find_qp(qpn);
  if (qp == nullptr) return;
  const int attempt = qp->inflight.at(wr_id).attempts;
  sched_.schedule_after(qp->cfg.retransmit_timeout, [this, qpn, wr_id,
                                                     attempt] {
    Qp* q = find_qp(qpn);
    if (q == nullptr || q->state == QpState::kError) return;
    auto it = q->inflight.find(wr_id);
    if (it == q->inflight.end()) return;      // ACKed in the meantime
    if (it->second.attempts != attempt) return;  // a retransmit re-armed us
    if (it->second.attempts > q->cfg.max_retries) {
      // Retries exhausted: the connection breaks (the paper's training-task
      // failure mode under severe flapping, §7.1 #1).
      q->state = QpState::kError;
      ++counters_.rc_broken_connections;
      Cqe cqe;
      cqe.qpn = qpn;
      cqe.wr_id = wr_id;
      cqe.is_send = true;
      cqe.success = false;
      cqe.timestamp = rnic_now();
      q->cfg.on_cqe(cqe);
      if (q->cfg.on_broken) q->cfg.on_broken();
      return;
    }
    rc_transmit(qpn, wr_id);
  });
}

void RnicDevice::on_datagram(const fabric::Datagram& d) {
  if (down_) {
    ++counters_.rx_dropped_down;
    return;
  }
  if (gid_index_missing_ || route_missing_) {
    // Misconfigured RNIC cannot demultiplex RoCE traffic (§7.1 #6, #7).
    ++counters_.rx_dropped_misconfig;
    return;
  }
  // RX DMA, then demultiplex by destination QPN.
  sched_.schedule_after(rx_delay(), [this, copy = d]() mutable {
    Qp* qp = find_qp(copy.dst_qpn);
    if (qp == nullptr || qp->state == QpState::kError) {
      // Stale QPN: the sender used outdated communication info ("QPN
      // reset" noise, §4.3.1). Real RNICs silently drop these.
      ++counters_.rx_dropped_no_qp;
      return;
    }
    ++counters_.rx_packets;

    // RC hardware ACK handling.
    if (const auto* ack = std::any_cast<HwAck>(&copy.payload)) {
      auto it = qp->inflight.find(ack->wr_id);
      if (it != qp->inflight.end()) {
        qp->inflight.erase(it);
        // RC send CQE is generated now, at ACK arrival (§4.2.1).
        Cqe cqe;
        cqe.qpn = qp->qpn;
        cqe.wr_id = ack->wr_id;
        cqe.is_send = true;
        cqe.timestamp = rnic_now();
        qp->cfg.on_cqe(cqe);
      }
      return;
    }

    if (qp->cfg.type == QpType::kRC) {
      // Generate the hardware ACK back to the sender, mirroring the data
      // packet's source port (like real RNICs do).
      const auto src_rnic = copy.src;
      fabric::Datagram ack;
      ack.src = id_;
      ack.dst = src_rnic;
      ack.tuple.src_ip = ip();
      ack.tuple.dst_ip = copy.tuple.src_ip;
      ack.tuple.src_port = copy.tuple.src_port;
      ack.size = 64;
      ack.src_qpn = qp->qpn;
      ack.dst_qpn = copy.src_qpn;
      ack.payload = HwAck{copy.wr_tag};
      fabric_.send(ack);
    }

    Cqe cqe;
    cqe.qpn = qp->qpn;
    cqe.is_send = false;
    cqe.timestamp = rnic_now();
    cqe.src_gid = gid_of(copy.src);
    cqe.src_qpn = copy.src_qpn;
    cqe.tuple = copy.tuple;
    cqe.byte_len = copy.size;
    cqe.payload = std::move(copy.payload);
    qp->cfg.on_cqe(cqe);
  });
}

void RnicDevice::set_down(bool down) {
  down_ = down;
  // A down RNIC takes its host link with it (port down on both ends).
  fabric_.set_cable_up(fabric_.topology().rnic(id_).uplink, !down);
}

void RnicDevice::set_pcie_factor(double factor) {
  if (factor <= 0.0 || factor > 1.0) {
    throw std::invalid_argument("set_pcie_factor: factor must be in (0, 1]");
  }
  pcie_factor_ = factor;
  // The host link's fabric-facing service rate degrades with PCIe: the RNIC
  // cannot drain at line rate, queues build at the ToR (PFC storm, #13/#14).
  const auto& info = fabric_.topology().rnic(id_);
  fabric_.link_state(info.downlink).service_rate_factor = factor;
}

void RnicDevice::reset_all_qps() {
  qps_.clear();
  qpc_lru_.clear();
}

}  // namespace rpm::rnic
