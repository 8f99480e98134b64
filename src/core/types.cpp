#include "core/types.h"

namespace rpm::core {

const char* probe_kind_name(ProbeKind k) {
  switch (k) {
    case ProbeKind::kTorMesh:
      return "tor-mesh";
    case ProbeKind::kInterTor:
      return "inter-tor";
    case ProbeKind::kServiceTracing:
      return "service-tracing";
  }
  return "?";
}

const char* anomaly_cause_name(AnomalyCause c) {
  switch (c) {
    case AnomalyCause::kHostDown:
      return "host-down";
    case AnomalyCause::kQpnReset:
      return "qpn-reset";
    case AnomalyCause::kAgentCpuNoise:
      return "agent-cpu-noise";
    case AnomalyCause::kRnicProblem:
      return "rnic-problem";
    case AnomalyCause::kSwitchProblem:
      return "switch-problem";
  }
  return "?";
}

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kP0:
      return "P0";
    case Priority::kP1:
      return "P1";
    case Priority::kP2:
      return "P2";
    case Priority::kNoise:
      return "noise";
  }
  return "?";
}

std::size_t upload_batch_wire_bytes(const UploadBatch& b) {
  // Header (host + seq + record count) ...
  std::size_t n = 4 + 8 + 4;
  for (const ProbeRecord& r : b.records) {
    // ... plus each record's fixed fields (ids, tuple, timestamps, status)
    // and 4 bytes per traced path link.
    n += 96;
    if (r.path_known) {
      n += 4 * (r.fwd_path.links.size() + r.rev_path.links.size());
    }
  }
  if (!b.summary.empty()) n += b.summary.serialized_bytes();
  return n;
}

const char* problem_category_name(ProblemCategory c) {
  switch (c) {
    case ProblemCategory::kHostDown:
      return "host-down";
    case ProblemCategory::kRnicProblem:
      return "rnic-problem";
    case ProblemCategory::kSwitchNetworkProblem:
      return "switch-network-problem";
    case ProblemCategory::kHighNetworkRtt:
      return "high-network-rtt";
    case ProblemCategory::kHighProcessingDelay:
      return "high-processing-delay";
    case ProblemCategory::kQpnResetNoise:
      return "qpn-reset-noise";
    case ProblemCategory::kAgentCpuNoise:
      return "agent-cpu-noise";
  }
  return "?";
}

}  // namespace rpm::core
