#include "faults/catalog.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace rpm::faults {

namespace {

constexpr std::uint32_t kNone = HostId::kInvalidValue;

constexpr std::pair<FaultKind, const char*> kSpecNames[] = {
    {FaultKind::kRnicFlapping, "rnic-flapping"},
    {FaultKind::kSwitchPortFlapping, "switch-port-flapping"},
    {FaultKind::kPacketCorruption, "corruption"},
    {FaultKind::kRnicDown, "rnic-down"},
    {FaultKind::kHostDown, "host-down"},
    {FaultKind::kPfcDeadlock, "pfc-deadlock"},
    {FaultKind::kRnicRouteMissing, "route-missing"},
    {FaultKind::kRnicGidIndexMissing, "gid-index-missing"},
    {FaultKind::kSwitchAclError, "acl-error"},
    {FaultKind::kPfcMisconfigured, "pfc-misconfigured"},
    {FaultKind::kCpuOverload, "cpu-overload"},
    {FaultKind::kPcieDowngrade, "pcie-downgrade"},
    {FaultKind::kAgentCpuOccupation, "agent-cpu-occupation"},
    {FaultKind::kQpnReset, "qpn-reset"},
    {FaultKind::kControlPlaneDegradation, "control-plane-degradation"},
};

}  // namespace

const char* spec_name(FaultKind k) {
  for (const auto& [kind, name] : kSpecNames) {
    if (kind == k) return name;
  }
  return "";
}

json::Value spec_to_value(const FaultSpec& spec) {
  json::Value v{json::Object{}};
  v.set("ctor", spec_name(spec.kind));
  if (spec.rnic.valid()) v.set("rnic", spec.rnic.value);
  if (spec.host.valid()) v.set("host", spec.host.value);
  if (spec.link.valid()) v.set("link", spec.link.value);
  if (spec.sw.valid()) v.set("switch", spec.sw.value);
  if (spec.src_ip.value != 0) v.set("src_ip", spec.src_ip.value);
  if (spec.dst_ip.value != 0) v.set("dst_ip", spec.dst_ip.value);
  if (spec.down_time != 0) v.set("down_time_ns", spec.down_time);
  if (spec.up_time != 0) v.set("up_time_ns", spec.up_time);
  if (spec.extra_latency != 0) v.set("extra_latency_ns", spec.extra_latency);
  if (spec.prob != 0.0) v.set("prob", spec.prob);
  if (spec.factor != 0.0) v.set("factor", spec.factor);
  if (spec.load != 0.0) v.set("load", spec.load);
  if (spec.extra_loss != 0.0) v.set("extra_loss", spec.extra_loss);
  return v;
}

FaultSpec spec_from_value(const json::Value& v) {
  if (!v.is_object()) throw std::runtime_error("FaultSpec: not an object");
  const std::string name = v.get_string("ctor");
  if (name.empty()) throw std::runtime_error("FaultSpec: missing ctor");
  FaultSpec s;
  for (const auto& [kind, json_name] : kSpecNames) {
    if (name == json_name) s.kind = kind;
  }
  if (!s.valid()) {
    throw std::runtime_error("FaultSpec: unknown ctor '" + name + "'");
  }
  const auto u32 = [&v](const char* key, std::uint32_t dflt) {
    const std::int64_t x = v.get_int(key, dflt);
    if (x < 0 || x > std::int64_t{kNone}) {
      throw std::runtime_error(std::string("FaultSpec: ") + key +
                               " out of range");
    }
    return static_cast<std::uint32_t>(x);
  };
  s.rnic = RnicId{u32("rnic", kNone)};
  s.host = HostId{u32("host", kNone)};
  s.link = LinkId{u32("link", kNone)};
  s.sw = SwitchId{u32("switch", kNone)};
  s.src_ip = IpAddr{u32("src_ip", 0)};
  s.dst_ip = IpAddr{u32("dst_ip", 0)};
  s.down_time = v.get_int("down_time_ns", 0);
  s.up_time = v.get_int("up_time_ns", 0);
  s.extra_latency = v.get_int("extra_latency_ns", 0);
  s.prob = v.get_double("prob", 0.0);
  s.factor = v.get_double("factor", 0.0);
  s.load = v.get_double("load", 0.0);
  s.extra_loss = v.get_double("extra_loss", 0.0);
  return s;
}

}  // namespace rpm::faults
