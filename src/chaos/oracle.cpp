#include "chaos/oracle.h"

#include "core/verdict.h"

namespace rpm::chaos {

std::string OracleReport::summary() const {
  std::string out;
  for (const InvariantViolation& v : violations) {
    if (!out.empty()) out += "; ";
    out += v.oracle + ": " + v.detail;
  }
  return out;
}

OracleReport check_invariants(const ChaosReport& rep, core::RPingmesh& rpm,
                              const OracleConfig& cfg) {
  OracleReport out;
  const auto violate = [&](const char* oracle, std::string detail) {
    out.violations.push_back({oracle, std::move(detail)});
  };

  if (rep.false_positives > 0) {
    violate("phantom-verdict",
            std::to_string(rep.false_positives) +
                " verdict(s) with no fault active");
  }
  if (rep.switch_false_positives > 0) {
    violate("phantom-switch", std::to_string(rep.switch_false_positives) +
                                  " phantom switch localization(s)");
  }
  if (rep.outage_false_positives > 0) {
    violate("outage-false-positive",
            std::to_string(rep.outage_false_positives) +
                " false positive(s) inside outage windows");
  }

  for (const ChaosReport::Recovery& r : rep.recoveries) {
    // Only enforce when the campaign left room to observe the deadline.
    const TimeNs deadline =
        r.at + static_cast<TimeNs>(cfg.max_recovery_periods + 1) * cfg.period;
    if (deadline > rep.duration) continue;
    if (r.periods_to_recover < 1 ||
        r.periods_to_recover > cfg.max_recovery_periods) {
      violate("recovery",
              r.event + " at " + std::to_string(r.at) + "ns recovered in " +
                  std::to_string(r.periods_to_recover) +
                  " periods (budget " +
                  std::to_string(cfg.max_recovery_periods) + ")");
    }
  }

  if (rpm.federated()) {
    for (std::size_t p = 0; p < rpm.num_pods(); ++p) {
      const std::uint64_t sent = rpm.pod_analyzer(p).digests_sent();
      const std::uint64_t accepted =
          rpm.global_analyzer().max_digest_seq(static_cast<std::uint32_t>(p));
      if (accepted > sent) {
        violate("journal-digest-seq",
                "pod " + std::to_string(p) + " accepted seq " +
                    std::to_string(accepted) + " > sent " +
                    std::to_string(sent));
      }
    }
  }

  for (std::size_t h = 0; h < rpm.num_agents(); ++h) {
    const TimeNs wait =
        rpm.agent(HostId{static_cast<std::uint32_t>(h)}).upload_wait();
    if (wait > core::kHostSilenceThreshold) {
      violate("upload-drain", "host " + std::to_string(h) +
                                  " upload unacked for " +
                                  std::to_string(wait) + "ns at campaign end");
    }
  }

  std::vector<std::string> roles;
  if (rpm.federated()) {
    for (std::size_t p = 0; p < rpm.num_pods(); ++p) {
      roles.push_back("pod" + std::to_string(p));
    }
    roles.emplace_back("global");
  } else {
    roles.emplace_back("analyzer");
  }
  for (const std::string& role : roles) {
    if (rpm.journal().checkpoint_bytes(role) == 0) continue;
    if (!rpm.journal().load_checkpoint(role).has_value()) {
      violate("journal-decode",
              "role '" + role + "' checkpoint failed to decode");
    }
  }

  return out;
}

}  // namespace rpm::chaos
