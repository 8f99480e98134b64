#include "chaos/plan_io.h"

#include <stdexcept>

#include "faults/catalog.h"

namespace rpm::chaos {

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
        plan.agent_restart(
            at, HostId{static_cast<std::uint32_t>(sv.get_int("host"))});
        break;
      case ChaosStep::Kind::kPodAnalyzerCrash:
        plan.pod_analyzer_crash(at,
                                static_cast<std::size_t>(sv.get_int("pod")));
        break;
      case ChaosStep::Kind::kPodAnalyzerRestart:
        plan.pod_analyzer_restart(at,
                                  static_cast<std::size_t>(sv.get_int("pod")));
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
