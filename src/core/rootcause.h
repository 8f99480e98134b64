// Root-cause hints — the paper's §7.5 "automatically diagnose root causes"
// future-work direction, implemented as a rule engine.
//
// The Analyzer localizes WHERE a problem is (an RNIC, a link, a host); the
// root cause (flapping port? corrupted fiber? missing GID index? PFC
// deadlock?) still needs the device counters and logs operators consult by
// hand. The RootCauseAdvisor automates that step: given a located Problem,
// it reads the implicated devices' counters (exactly the CRC/drop/pause/
// retransmit counters the paper lists) and returns ranked hypotheses with
// the evidence that produced each.
#pragma once

#include <string>
#include <vector>

#include "core/types.h"
#include "host/cluster.h"

namespace rpm::core {

/// A ranked hypothesis about a problem's root cause.
struct RootCauseHint {
  std::string cause;       // e.g. "packet corruption (fiber/optics)"
  double confidence = 0.0; // [0, 1]; heuristic, ordered within a problem
  std::string evidence;    // which counters/logs support it
};

/// Rule-based advisor reading device counters from the cluster — the
/// "integrate probing results with counters" design of §7.5. Stateless
/// between calls except for counter baselines (rates need deltas). It reads
/// link state through a const Fabric, so advice never wakes a quiet fluid
/// plane.
class RootCauseAdvisor {
 public:
  explicit RootCauseAdvisor(host::Cluster& cluster);

  /// Snapshot all counters; hints are computed from deltas since the last
  /// snapshot (call once per analysis period).
  void snapshot_baseline();

  /// Ranked root-cause hypotheses for a located problem (may be empty when
  /// no counter evidence distinguishes causes).
  [[nodiscard]] std::vector<RootCauseHint> advise(const Problem& p) const;

 private:
  struct LinkBaseline {
    std::uint64_t drops_corrupt = 0;
    std::uint64_t drops_overflow = 0;
    std::uint64_t drops_down = 0;
    std::uint64_t pfc_pause_events = 0;
  };
  struct RnicBaseline {
    std::uint64_t rx_dropped_no_qp = 0;
    std::uint64_t rx_dropped_misconfig = 0;
    std::uint64_t rc_retransmits = 0;
    std::uint64_t rc_broken_connections = 0;
  };

  void advise_link(LinkId link, std::vector<RootCauseHint>& out) const;
  void advise_rnic(RnicId rnic, std::vector<RootCauseHint>& out) const;

  host::Cluster& cluster_;
  std::vector<LinkBaseline> link_base_;
  std::vector<RnicBaseline> rnic_base_;
};

}  // namespace rpm::core
