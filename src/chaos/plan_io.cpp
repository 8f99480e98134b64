#include "chaos/plan_io.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "faults/catalog.h"

namespace rpm::chaos {

namespace {

// A step's host or pod id, rejected rather than truncated when it is
// negative or does not fit 32 bits (as spec_from_value rejects a spec's).
std::uint32_t step_id(const json::Value& sv, const char* key) {
  const std::int64_t x = sv.get_int(key);
  if (x < 0 || x > std::int64_t{std::numeric_limits<std::uint32_t>::max()}) {
    throw std::runtime_error(std::string("ChaosPlan: ") + key +
                             " out of range");
  }
  return static_cast<std::uint32_t>(x);
}

}  // namespace

json::Value plan_to_value(const ChaosPlan& plan) {
  json::Value v{json::Object{}};
  v.set("duration_ns", plan.duration);
  v.set("seed", plan.seed);
  v.set("match_grace_ns", plan.match_grace);
  v.set("outage_grace_ns", plan.outage_grace);
  json::Array steps;
  steps.reserve(plan.steps.size());
  for (const ChaosStep& s : plan.steps) {
    json::Value sv{json::Object{}};
    sv.set("kind", chaos_step_name(s.kind));
    sv.set("at_ns", s.at);
    switch (s.kind) {
      case ChaosStep::Kind::kAgentRestart:
        sv.set("host", s.host.value);
        break;
      case ChaosStep::Kind::kPodAnalyzerCrash:
      case ChaosStep::Kind::kPodAnalyzerRestart:
        sv.set("pod", static_cast<std::uint64_t>(s.pod));
        break;
      case ChaosStep::Kind::kInject:
        sv.set("label", s.label);
        sv.set("spec", faults::spec_to_value(s.spec));
        break;
      case ChaosStep::Kind::kClear:
        sv.set("clear_ref", s.clear_ref);
        break;
      default:
        break;
    }
    steps.push_back(std::move(sv));
  }
  v.set("steps", json::Value(std::move(steps)));
  return v;
}

std::string plan_to_json(const ChaosPlan& plan) {
  return plan_to_value(plan).dump(2) + "\n";
}

ChaosPlan plan_from_value(const json::Value& v) {
  if (!v.is_object()) throw std::runtime_error("ChaosPlan: not an object");
  ChaosPlan plan;
  plan.duration = v.get_int("duration_ns", plan.duration);
  plan.seed = static_cast<std::uint64_t>(v.get_int("seed", 0));
  plan.match_grace = v.get_int("match_grace_ns", plan.match_grace);
  plan.outage_grace = v.get_int("outage_grace_ns", plan.outage_grace);
  const json::Value* steps = v.find("steps");
  if (steps == nullptr) return plan;
  for (const json::Value& sv : steps->as_array()) {
    const ChaosStep::Kind kind =
        chaos_step_kind_from_name(sv.get_string("kind"));
    const TimeNs at = sv.get_int("at_ns");
    switch (kind) {
      case ChaosStep::Kind::kControllerCrash:
        plan.controller_crash(at);
        break;
      case ChaosStep::Kind::kControllerRestart:
        plan.controller_restart(at);
        break;
      // Outage windows serialize as their two endpoint steps; rebuild them
      // individually (analyzer_outage() would need the paired step).
      case ChaosStep::Kind::kAnalyzerOutageBegin: {
        ChaosStep s;
        s.kind = kind;
        s.at = at;
        plan.steps.push_back(std::move(s));
        break;
      }
      case ChaosStep::Kind::kAnalyzerOutageEnd: {
        ChaosStep s;
        s.kind = kind;
        s.at = at;
        plan.steps.push_back(std::move(s));
        break;
      }
      case ChaosStep::Kind::kAgentRestart:
        plan.agent_restart(at, HostId{step_id(sv, "host")});
        break;
      case ChaosStep::Kind::kPodAnalyzerCrash:
        plan.pod_analyzer_crash(at, step_id(sv, "pod"));
        break;
      case ChaosStep::Kind::kPodAnalyzerRestart:
        plan.pod_analyzer_restart(at, step_id(sv, "pod"));
        break;
      case ChaosStep::Kind::kInject: {
        const json::Value* spec = sv.find("spec");
        if (spec == nullptr) throw std::runtime_error("inject: missing spec");
        plan.inject(at, sv.get_string("label"),
                    faults::spec_from_value(*spec));
        break;
      }
      case ChaosStep::Kind::kClear:
        plan.clear(at, sv.get_string("clear_ref"));
        break;
    }
  }
  return plan;
}

ChaosPlan plan_from_json(std::string_view text) {
  return plan_from_value(json::Value::parse(text));
}

}  // namespace rpm::chaos
