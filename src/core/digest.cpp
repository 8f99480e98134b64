#include "core/digest.h"

namespace rpm::core {

SlaReport SlaDigest::to_report() const {
  SlaReport sla;
  sla.probes = probes;
  sla.timeouts = timeouts;
  if (probes > 0) {
    sla.rnic_drop_rate =
        static_cast<double>(rnic_drops) / static_cast<double>(probes);
    sla.switch_drop_rate =
        static_cast<double>(switch_drops) / static_cast<double>(probes);
  }
  sla.rtt_mean = rtt.mean();
  sla.rtt_p50 = rtt.quantile(0.50);
  sla.rtt_p90 = rtt.quantile(0.90);
  sla.rtt_p99 = rtt.quantile(0.99);
  sla.rtt_p999 = rtt.quantile(0.999);
  sla.proc_p50 = proc.quantile(0.50);
  sla.proc_p90 = proc.quantile(0.90);
  sla.proc_p99 = proc.quantile(0.99);
  sla.proc_p999 = proc.quantile(0.999);
  return sla;
}

namespace {

std::size_t chain_wire_bytes(const obs::EvidenceChain& c) {
  // id + problem id + enum/flag byte + tallies + thresholds + probe ids +
  // string lengths. Strings ride length-prefixed.
  std::size_t b = 8 + 8 + 4 + 8;  // id, problem id, service, total_probes
  b += 4 + c.verdict.size() + 4 + c.triage_branch.size();
  b += 4 + c.summary.size();
  b += 8 + c.link_votes.size() * (4 + 8);
  b += 8 + c.switch_votes.size() * (4 + 8);
  b += 8 + c.thresholds.size() * (8 + 8 + 1 + 16);  // value+limit+cmp+name
  b += 8 + c.probe_ids.size() * 8;
  for (const auto& [site, count] : c.drop_sites) {
    b += 4 + site.size() + 8;
    (void)count;
  }
  b += 8;
  return b;
}

std::size_t problem_wire_bytes(const Problem& p) {
  std::size_t b = 8 + 8 + 1 + 1 + 4 + 4 + 4 + 1 + 1;  // ids, enums, flags
  b += 8 + p.suspect_links.size() * 4;
  b += 8 + p.suspect_switches.size() * 4;
  b += 8 + p.top_link_votes.size() * (4 + 8);
  b += 8;  // anomalous_probes
  b += 4 + p.summary.size();
  return b;
}

std::size_t sla_digest_wire_bytes(const SlaDigest& d) {
  return 4 * 8 + d.rtt.serialized_bytes() + d.proc.serialized_bytes();
}

}  // namespace

std::size_t pod_digest_wire_bytes(const PodDigest& d) {
  std::size_t b = 4 + 8 + 8 + 8 + 8;  // pod, seq, bounds, records_processed
  b += 5 * 8;                         // timeout tallies
  b += 8 + d.down_hosts.size() * 4;
  b += 8 + d.blamed_rnics.size() * (4 + 8);
  b += 8 + d.cpu_noise_hosts.size() * 4;
  b += 8;
  for (const Problem& p : d.problems) b += problem_wire_bytes(p);
  b += 8;
  for (const obs::EvidenceChain& c : d.chains) b += chain_wire_bytes(c);
  b += 8;
  for (const ForeignTimeout& f : d.foreign) {
    b += 8 + 1 + 4 * 4 + 4 + 1;  // probe id, kind, endpoints, service, flag
    b += 8 + f.path_links.size() * 4;
  }
  b += sla_digest_wire_bytes(d.cluster_sla);
  b += 8;
  for (const auto& [svc, sla] : d.service_slas) {
    b += 4 + sla_digest_wire_bytes(sla);
  }
  b += 8;
  for (const ServiceNetDigest& n : d.service_nets) {
    b += 4 + 8 + n.links.size() * 4 + 8 + n.rnics.size() * 4 + 8 +
         n.hosts.size() * 4;
  }
  return b;
}

}  // namespace rpm::core
