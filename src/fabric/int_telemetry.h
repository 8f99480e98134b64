// In-band Network Telemetry (INT) path tracing — the upgrade path the paper
// leaves open in §7.4.
//
// Traceroute burns switch CPU, so switches rate-limit responses and the
// Agent's path cache can go stale. INT metadata is stamped by the data
// plane: no CPU cost, no rate limit, and each hop can report its queue
// depth — which localizes congestion directly instead of inferring it from
// RTT voting. The paper decoupled its path-tracing module precisely so INT
// could slot in on capable fabrics; this class is that slot-in.
#pragma once

#include "common/five_tuple.h"
#include "common/types.h"
#include "fabric/fabric.h"

namespace rpm::fabric {

/// One INT hop record: the traversed link and the egress queue state the
/// packet observed there.
struct IntHop {
  LinkId link;
  SwitchId sw;          // switch that stamped the record (invalid on the
                        // final host-bound hop)
  Bytes queue_bytes = 0;
  TimeNs queue_delay = 0;
};

struct IntTraceResult {
  routing::Path path;
  std::vector<IntHop> hops;
  bool complete = false;
};

/// Data-plane path telemetry over the simulated fabric. Unlike
/// routing::TracerouteService there is no rate limiting: every trace
/// returns the full, current path. It only reads the fabric, so a trace
/// never wakes a quiet fluid plane.
class IntTelemetry {
 public:
  explicit IntTelemetry(const Fabric& fabric) : fabric_(fabric) {}

  /// Trace the current ECMP path of `tuple` and sample each hop's queue.
  [[nodiscard]] IntTraceResult trace(RnicId src, RnicId dst,
                                     const FiveTuple& tuple) const;

 private:
  const Fabric& fabric_;
};

}  // namespace rpm::fabric
