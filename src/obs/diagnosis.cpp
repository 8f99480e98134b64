#include "obs/diagnosis.h"

#include "common/json.h"

namespace rpm::obs {

namespace {

void append_votes(std::string& out, const std::vector<VoteCount>& votes) {
  out += '[';
  bool first = true;
  for (const VoteCount& v : votes) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(v.id) +
           ",\"votes\":" + std::to_string(v.votes) + '}';
  }
  out += ']';
}

}  // namespace

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

std::string to_json(const ThresholdCheck& t) {
  std::string out = "{\"name\":";
  json::append_quoted(out, t.name);
  out += ",\"threshold\":" + json::fmt_double(t.threshold) +
         ",\"observed\":" + json::fmt_double(t.observed) + ",\"exceeded\":";
  out += t.exceeded ? "true" : "false";
  out += '}';
  return out;
}

std::string to_json(const EvidenceChain& c) {
  std::string out = "{\"evidence_id\":" + std::to_string(c.id);
  if (c.problem_id != 0) {
    out += ",\"problem_id\":" + std::to_string(c.problem_id);
  }
  out += ",\"verdict\":";
  json::append_quoted(out, c.verdict);
  out += ",\"triage_branch\":";
  json::append_quoted(out, c.triage_branch);
  if (c.service != 0) out += ",\"service\":" + std::to_string(c.service);
  out += ",\"total_probes\":" + std::to_string(c.total_probes);
  out += ",\"probe_ids\":[";
  bool first = true;
  for (std::uint64_t id : c.probe_ids) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(id);
  }
  out += "],\"link_votes\":";
  append_votes(out, c.link_votes);
  out += ",\"switch_votes\":";
  append_votes(out, c.switch_votes);
  out += ",\"thresholds\":[";
  first = true;
  for (const ThresholdCheck& t : c.thresholds) {
    if (!first) out += ',';
    first = false;
    out += to_json(t);
  }
  out += ']';
  if (!c.drop_sites.empty()) {
    // Optional: absent entirely when empty so recorder-off output is
    // byte-identical to builds that predate auto-triage.
    out += ",\"drop_sites\":[";
    first = true;
    for (const auto& [site, count] : c.drop_sites) {
      if (!first) out += ',';
      first = false;
      out += "{\"site\":";
      json::append_quoted(out, site);
      out += ",\"count\":" + std::to_string(count) + '}';
    }
    out += ']';
  }
  out += ",\"summary\":";
  json::append_quoted(out, c.summary);
  out += '}';
  return out;
}

std::string to_json(const DiagnosisLog& log) {
  std::string out =
      "{\"period_start\":" + std::to_string(log.period_start) +
      ",\"period_end\":" + std::to_string(log.period_end) + ",\"chains\":[";
  bool first = true;
  for (const EvidenceChain& c : log.chains) {
    if (!first) out += ',';
    first = false;
    out += to_json(c);
  }
  out += "]}";
  return out;
}

}  // namespace rpm::obs
