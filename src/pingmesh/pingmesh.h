// Baseline: classic Pingmesh-style software-timestamped probing.
//
// Pingmesh [Guo et al., SIGCOMM'15] measures RTT at the application layer
// with TCP probes. Its measured RTT is ① to ⑥ only:
//
//     software RTT = prober processing delay
//                  + network RTT
//                  + responder processing delay
//
// which means it (a) fluctuates with host CPU load (Figure 2), (b) cannot
// separate host from network bottlenecks, and (c) — riding the lossy TCP
// traffic class — cannot see RoCE-queue problems like PFC misconfiguration
// or deadlock (§2.4). This module exists so benches can show those
// limitations side by side with R-Pingmesh's hardware-timestamped probing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "host/cluster.h"

namespace rpm::pingmesh {

/// Result of one software probe.
struct SoftwarePingResult {
  bool ok = false;
  TimeNs software_rtt = 0;  // ⑥ - ① on the prober's host clock
};

/// Installs a responder endpoint on every RNIC and lets callers issue
/// software-timestamped probes between any RNIC pair.
class SoftwarePingmesh {
 public:
  explicit SoftwarePingmesh(host::Cluster& cluster);

  /// Issue one probe; `done` fires when the reply arrives or the timeout
  /// elapses.
  void probe(RnicId src, RnicId dst,
             std::function<void(const SoftwarePingResult&)> done);

 private:
  struct Endpoint {
    Qpn qpn;
  };
  struct Pending {
    TimeNs t1_host = 0;  // ① on the prober's host clock
    std::function<void(const SoftwarePingResult&)> done;
    bool finished = false;
  };
  struct Payload {
    std::uint64_t probe_id;
    bool is_reply;
    Qpn reply_qpn;
  };

  void on_cqe(RnicId rnic, const rnic::Cqe& cqe);

  host::Cluster& cluster_;
  std::vector<Endpoint> endpoints_;  // per rnic
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
};

}  // namespace rpm::pingmesh
