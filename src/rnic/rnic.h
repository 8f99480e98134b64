// Software model of a commodity RDMA NIC.
//
// The model is deliberately faithful to the CQE-timestamp semantics that
// R-Pingmesh's measurement method depends on (§4.2.1, Table 1):
//
//  * RNICs never expose "packet sent/received at T" directly; they only
//    timestamp Completion Queue Events, using the RNIC's own free-running
//    clock (sim::DeviceClock — offset and drift are real here).
//  * UD/UC QPs generate the *send* CQE when the message hits the wire, so
//    timestamps ② (probe sent) and ④ (ACK sent) are observable.
//  * RC QPs generate the send CQE only after the hardware ACK returns, so a
//    prober using RC cannot observe ② — this is why the Agent probes with UD.
//  * Receive CQEs exist for all types: timestamps ③ and ⑤ are observable.
//
// Also modelled, because the paper's problem catalogue needs them:
//  * QPN allocation that changes when the owning process recreates QPs
//    (Agent restart → "QPN reset" probe noise, §4.3.1).
//  * A QPC cache: each active QP context occupies a slot; overflow causes
//    per-operation miss penalties (why RC/UC probing at fan-out degrades
//    service traffic, Table 1).
//  * RC retransmission: `max_retries` (7 in the paper's deployment) and a
//    retransmit timeout; exhausted retries break the connection — exactly
//    the failure mode flapping induces in training jobs (§7.1 #1).
//  * Misconfiguration flags (#6 missing RDMA route, #7 missing GID index)
//    that make the RNIC silently unreachable, and a PCIe factor (<1 after a
//    downgrade, #13/#14) that slows DMA and the fabric-facing service rate.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/five_tuple.h"
#include "common/rng.h"
#include "common/types.h"
#include "fabric/fabric.h"
#include "sim/clock.h"
#include "sim/scheduler.h"

namespace rpm::rnic {

enum class QpType : std::uint8_t { kRC, kUC, kUD };
enum class QpState : std::uint8_t { kReset, kReadyToRecv, kReadyToSend, kError };

const char* qp_type_name(QpType t);

/// Completion Queue Event. `timestamp` is a reading of the *owning RNIC's*
/// clock — comparable only with other readings of the same RNIC's clock.
struct Cqe {
  Qpn qpn;
  std::uint64_t wr_id = 0;
  bool is_send = false;
  bool success = true;
  TimeNs timestamp = 0;
  // receive-side context
  Gid src_gid;
  Qpn src_qpn;
  FiveTuple tuple;
  Bytes byte_len = 0;
  std::any payload;
};

using CqeHandler = std::function<void(const Cqe&)>;

struct QpConfig {
  QpType type = QpType::kUD;
  CqeHandler on_cqe;  // invoked for both send and receive completions
  // RC-only knobs (paper §7.1 #1: ops crank retries to the max, 7):
  int max_retries = 7;
  TimeNs retransmit_timeout = msec(4);
  std::function<void()> on_broken;  // RC retries exhausted -> QP error
};

/// Tunable physical parameters of the device.
struct RnicParams {
  std::size_t qpc_cache_slots = 256;
};

/// The stall a send pays when its QP's context misses the QPC cache.
inline constexpr TimeNs kQpcMissPenalty = usec(2);

/// Counters a real RNIC would expose (used by tests and the fault catalog).
struct RnicCounters {
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_dropped_no_qp = 0;       // stale QPN (QPN reset noise)
  std::uint64_t rx_dropped_misconfig = 0;   // GID index / route missing
  std::uint64_t rx_dropped_down = 0;
  std::uint64_t rc_retransmits = 0;
  std::uint64_t rc_broken_connections = 0;
  std::uint64_t qpc_cache_misses = 0;
  std::uint64_t qpc_cache_hits = 0;
};

class RnicDevice {
 public:
  RnicDevice(RnicId id, fabric::Fabric& fabric, sim::Scheduler& sched,
             sim::DeviceClock clock, Rng rng, RnicParams params = {});

  RnicDevice(const RnicDevice&) = delete;
  RnicDevice& operator=(const RnicDevice&) = delete;

  [[nodiscard]] RnicId id() const { return id_; }
  [[nodiscard]] Gid gid() const;
  [[nodiscard]] IpAddr ip() const;
  [[nodiscard]] const topo::Topology& topology() const {
    return fabric_.topology();
  }
  [[nodiscard]] const sim::DeviceClock& clock() const { return clock_; }
  [[nodiscard]] TimeNs rnic_now() const { return clock_.read(sched_.now()); }

  // ---- verbs-level operations (wrapped by src/verbs) ----

  /// Create a QP; returns its freshly allocated QPN (never reused).
  Qpn create_qp(QpConfig cfg);
  void destroy_qp(Qpn qpn);
  [[nodiscard]] bool has_qp(Qpn qpn) const;
  [[nodiscard]] QpState qp_state(Qpn qpn) const;

  /// Connect an RC/UC QP to a remote endpoint. `src_port` fixes the outer
  /// UDP source port (the verbs flow-label trick, §3.1).
  void connect_qp(Qpn qpn, Gid remote_gid, Qpn remote_qpn,
                  std::uint16_t src_port);

  /// UD send to an explicit destination (address handle + remote QPN).
  /// `trace_id` (0 = untracked) is the flight-recorder correlation key
  /// copied into the outgoing Datagram so the fabric can attribute per-hop
  /// events to a sampled probe.
  void post_send_ud(Qpn qpn, Gid dst_gid, Qpn dst_qpn, std::uint16_t src_port,
                    Bytes size, std::any payload, std::uint64_t wr_id,
                    std::uint64_t trace_id = 0);

  /// Send on a connected (RC/UC) QP.
  void post_send_connected(Qpn qpn, Bytes size, std::any payload,
                           std::uint64_t wr_id);

  // ---- fault hooks (driven by src/faults) ----

  void set_down(bool down);
  [[nodiscard]] bool is_down() const { return down_; }
  void set_gid_index_missing(bool missing) { gid_index_missing_ = missing; }
  [[nodiscard]] bool gid_index_missing() const { return gid_index_missing_; }
  void set_routing_config_missing(bool missing) { route_missing_ = missing; }
  [[nodiscard]] bool routing_config_missing() const { return route_missing_; }
  /// PCIe width/speed factor in (0,1]; also degrades the fabric-facing
  /// service rate of the host link (PFC-storm precursor, §7.1 #13-#14).
  void set_pcie_factor(double factor);
  [[nodiscard]] double pcie_factor() const { return pcie_factor_; }

  /// Destroys every QP and reallocates nothing: the next create_qp calls
  /// return *new* QPNs. Models the owning process (Agent) restarting.
  void reset_all_qps();

  [[nodiscard]] const RnicCounters& counters() const { return counters_; }
  [[nodiscard]] std::size_t active_qp_count() const { return qps_.size(); }

  /// Touch the QPC cache slot of `qpn` as real traffic would; returns the
  /// added latency (0 on hit, miss penalty on miss). Exposed so benches can
  /// model service traffic sharing the cache with probing QPs.
  TimeNs qpc_touch(Qpn qpn);

 private:
  struct PendingRcSend {
    std::uint64_t wr_id = 0;
    Bytes size = 0;
    std::any payload;
    int attempts = 0;
  };

  struct Qp {
    Qpn qpn;
    QpConfig cfg;
    QpState state = QpState::kReset;
    // connected-QP context
    Gid remote_gid;
    Qpn remote_qpn;
    std::uint16_t src_port = 0;
    // RC in-flight sends keyed by wr_id
    std::unordered_map<std::uint64_t, PendingRcSend> inflight;
  };

  /// Tag carried by RC hardware ACK datagrams.
  struct HwAck {
    std::uint64_t wr_id;
  };

  void on_datagram(const fabric::Datagram& d);
  void wire_send(Qp& qp, fabric::Datagram d, std::uint64_t wr_id,
                 bool gen_send_cqe_now);
  void rc_transmit(Qpn qpn, std::uint64_t wr_id);
  void arm_rc_timeout(Qpn qpn, std::uint64_t wr_id);
  [[nodiscard]] TimeNs tx_delay() const;
  [[nodiscard]] TimeNs rx_delay() const;
  Qp* find_qp(Qpn qpn);

  RnicId id_;
  fabric::Fabric& fabric_;
  sim::Scheduler& sched_;
  sim::DeviceClock clock_;
  Rng rng_;
  RnicParams params_;

  bool down_ = false;
  bool gid_index_missing_ = false;
  bool route_missing_ = false;
  double pcie_factor_ = 1.0;

  std::uint32_t next_qpn_ = 0x100;  // QPNs start above reserved range
  std::unordered_map<std::uint32_t, Qp> qps_;
  std::vector<Qpn> qpc_lru_;  // front = coldest
  RnicCounters counters_;
};

/// Derives the Gid deterministically from an RnicId (and vice versa), the
/// simulator's stand-in for GID assignment.
Gid gid_of(RnicId id);
std::optional<RnicId> rnic_of_gid(Gid gid);

}  // namespace rpm::rnic
