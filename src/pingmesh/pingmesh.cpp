#include "pingmesh/pingmesh.h"

namespace rpm::pingmesh {

namespace {

constexpr TimeNs kTimeout = msec(500);
constexpr Bytes kPayload = 50;
constexpr std::uint8_t kProtocol = 6;  // TCP traffic class (Figure 2)
constexpr std::uint16_t kSrcPortBase = 42000;

}  // namespace

SoftwarePingmesh::SoftwarePingmesh(host::Cluster& cluster)
    : cluster_(cluster) {
  endpoints_.resize(cluster_.num_rnics());
  for (std::uint32_t i = 0; i < cluster_.num_rnics(); ++i) {
    const RnicId id{i};
    rnic::QpConfig qcfg;
    qcfg.type = rnic::QpType::kUD;
    qcfg.on_cqe = [this, id](const rnic::Cqe& c) { on_cqe(id, c); };
    endpoints_[i].qpn = cluster_.rnic_device(id).create_qp(qcfg);
  }
}

void SoftwarePingmesh::probe(
    RnicId src, RnicId dst,
    std::function<void(const SoftwarePingResult&)> done) {
  auto& sched = cluster_.scheduler();
  host::HostModel& prober_host = cluster_.host(cluster_.topology().rnic(src).host);

  const std::uint64_t id = next_id_++;
  Pending p;
  p.t1_host = prober_host.host_now();  // ① software timestamp
  p.done = std::move(done);
  pending_.emplace(id, std::move(p));

  // Userspace -> kernel -> NIC takes one scheduling quantum too, but
  // Pingmesh's ① is taken before the send syscall, so nothing to add here.
  rnic::RnicDevice& dev = cluster_.rnic_device(src);
  // Build the probe "TCP segment": we reuse the UD machinery but stamp the
  // TCP protocol so the fabric routes it through the lossy traffic class.
  fabric::Datagram d;
  d.src = src;
  d.dst = dst;
  d.tuple.src_ip = dev.ip();
  d.tuple.dst_ip = cluster_.topology().rnic(dst).ip;
  d.tuple.src_port = static_cast<std::uint16_t>(kSrcPortBase + (id & 0x3FF));
  d.tuple.dst_port = 80;  // Pingmesh-style server port
  d.tuple.protocol = kProtocol;
  d.size = kPayload;
  d.dst_qpn = endpoints_[dst.value].qpn;
  d.src_qpn = endpoints_[src.value].qpn;
  d.payload = Payload{id, false, endpoints_[src.value].qpn};
  cluster_.fabric().send(d);

  // Timeout.
  sched.schedule_after(kTimeout, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second.done);
    pending_.erase(it);
    SoftwarePingResult r;
    r.ok = false;
    cb(r);
  });
}

void SoftwarePingmesh::on_cqe(RnicId rnic_id, const rnic::Cqe& cqe) {
  if (cqe.is_send) return;
  const auto* pl = std::any_cast<Payload>(&cqe.payload);
  if (pl == nullptr) return;
  host::HostModel& h =
      cluster_.host(cluster_.topology().rnic(rnic_id).host);
  if (h.is_down()) return;

  if (!pl->is_reply) {
    // Responder side: the reply is sent only after the server process gets
    // scheduled — that delay is invisible to the prober's math.
    const Payload reply{pl->probe_id, true, Qpn{}};
    const auto src = rnic::rnic_of_gid(cqe.src_gid);
    if (!src) return;
    const Qpn reply_qpn = pl->reply_qpn;
    const RnicId target = *src;
    cluster_.scheduler().schedule_after(
        h.sample_process_delay(), [this, rnic_id, target, reply, reply_qpn,
                                   tuple = cqe.tuple] {
          rnic::RnicDevice& dev = cluster_.rnic_device(rnic_id);
          if (dev.is_down()) return;
          fabric::Datagram d;
          d.src = rnic_id;
          d.dst = target;
          d.tuple.src_ip = dev.ip();
          d.tuple.dst_ip = tuple.src_ip;
          d.tuple.src_port = tuple.src_port;
          d.tuple.dst_port = 80;
          d.tuple.protocol = tuple.protocol;
          d.size = 50;
          d.dst_qpn = reply_qpn;
          d.payload = reply;
          cluster_.fabric().send(d);
        });
    return;
  }

  // Prober side: the probing process observes the reply only after it gets
  // scheduled; ⑥ is taken then. This is what makes software RTT track load.
  const std::uint64_t id = pl->probe_id;
  cluster_.scheduler().schedule_after(h.sample_process_delay(), [this, id,
                                                                 rnic_id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // already timed out
    host::HostModel& prober_host =
        cluster_.host(cluster_.topology().rnic(rnic_id).host);
    SoftwarePingResult r;
    r.ok = true;
    r.software_rtt = prober_host.host_now() - it->second.t1_host;
    auto cb = std::move(it->second.done);
    pending_.erase(it);
    cb(r);
  });
}

}  // namespace rpm::pingmesh
