#include "obs/diagnosis.h"

namespace rpm::obs {

const EvidenceChain* DiagnosisLog::find(std::uint64_t evidence_id) const {
  for (const EvidenceChain& c : chains) {
    if (c.id == evidence_id) return &c;
  }
  return nullptr;
}

const EvidenceChain* DiagnosisLog::find_problem(
    std::uint64_t problem_id) const {
  if (problem_id == 0) return nullptr;
  for (const EvidenceChain& c : chains) {
    if (c.problem_id == problem_id) return &c;
  }
  return nullptr;
}

namespace {

void write_votes(json::Writer& w, const std::vector<VoteCount>& votes) {
  w.begin_array();
  for (const VoteCount& v : votes) {
    w.begin_object().key("id").integer(v.id).key("votes").integer(v.votes)
        .end_object();
  }
  w.end_array();
}

}  // namespace

void write_json(json::Writer& w, const EvidenceChain& c) {
  w.begin_object().key("evidence_id").integer(c.id);
  if (c.problem_id != 0) w.key("problem_id").integer(c.problem_id);
  w.key("verdict").string(c.verdict);
  w.key("triage_branch").string(c.triage_branch);
  if (c.service != 0) w.key("service").integer(c.service);
  w.key("total_probes").integer(c.total_probes);
  w.key("probe_ids").begin_array();
  for (std::uint64_t id : c.probe_ids) w.integer(id);
  w.end_array();
  write_votes(w.key("link_votes"), c.link_votes);
  write_votes(w.key("switch_votes"), c.switch_votes);
  w.key("thresholds").begin_array();
  for (const ThresholdCheck& t : c.thresholds) {
    w.begin_object()
        .key("name").string(t.name)
        .key("threshold").number(t.threshold)
        .key("observed").number(t.observed)
        .key("exceeded").boolean(t.exceeded)
        .end_object();
  }
  w.end_array();
  if (!c.drop_sites.empty()) {
    // Optional: absent entirely when empty so recorder-off output is
    // byte-identical to builds that predate auto-triage.
    w.key("drop_sites").begin_array();
    for (const auto& [site, count] : c.drop_sites) {
      w.begin_object().key("site").string(site).key("count").integer(count)
          .end_object();
    }
    w.end_array();
  }
  w.key("summary").string(c.summary).end_object();
}

void write_json(json::Writer& w, const DiagnosisLog& log) {
  w.begin_object()
      .key("period_start").integer(log.period_start)
      .key("period_end").integer(log.period_end)
      .key("chains").begin_array();
  for (const EvidenceChain& c : log.chains) write_json(w, c);
  w.end_array().end_object();
}

std::string to_json(const EvidenceChain& c) {
  return json::to_string([&c](json::Writer& w) { write_json(w, c); });
}

std::string to_json(const DiagnosisLog& log) {
  return json::to_string([&log](json::Writer& w) { write_json(w, log); });
}

}  // namespace rpm::obs
