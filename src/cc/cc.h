// Congestion control algorithms for the fluid traffic engine.
//
// Figure 11 (right) of the paper compares commodity DCQCN against
// ByteDance's self-developed algorithm on All2All traffic: the custom
// algorithm cuts tail RTT and raises training throughput. We implement:
//
//  * Dcqcn — the fluid-granularity analogue of DCQCN [Zhu et al., SIGCOMM'15]:
//    ECN-fraction-driven multiplicative decrease with the alpha estimator,
//    followed by fast recovery toward the pre-cut target rate and additive /
//    hyper increase. DCQCN keeps queues near the ECN knee, so tail latency
//    under incast stays high. Pitfall: every clean update scales alpha by
//    (1 - g), so after ~11k of them (about a second of 100 us steps) alpha
//    sinks below the smallest normal double. Arithmetic on subnormals takes
//    a microcode assist (several times slower per update), and the smallest
//    subnormal times 15/16 rounds back to itself, so alpha would stay there
//    for good. Dcqcn flushes it to 0 instead; rates stay bit-identical
//    (the argument is in cc.cpp).
//
//  * DelayCc — a Swift/HPCC-flavoured delay-based controller that steers the
//    path queueing delay toward a small target. It keeps queues (and thus
//    tail RTT) much lower at modest throughput cost, reproducing the paper's
//    comparison shape.
//
// Controllers are stateless about flows except via `flow_slot`, matching the
// fabric::RateController contract.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "fabric/fabric.h"

namespace rpm::cc {

class Dcqcn final : public fabric::RateController {
 public:

  double reset(std::uint32_t flow_slot, double demand_Bps,
               double line_rate_Bps) override;
  double update(std::uint32_t flow_slot, const fabric::CcFeedback& fb,
                double current_rate_Bps) override;
  [[nodiscard]] std::string name() const override { return "dcqcn"; }

 private:
  struct State {
    double target_rate = 0.0;
    double alpha = 1.0;
    TimeNs since_decrease = 0;
    TimeNs since_increase = 0;
    int recovery_round = 0;
    double line_rate = 0.0;
  };
  std::unordered_map<std::uint32_t, State> flows_;
};

class DelayCc final : public fabric::RateController {
 public:

  double reset(std::uint32_t flow_slot, double demand_Bps,
               double line_rate_Bps) override;
  double update(std::uint32_t flow_slot, const fabric::CcFeedback& fb,
                double current_rate_Bps) override;
  [[nodiscard]] std::string name() const override { return "delaycc"; }

 private:
  struct State {
    double line_rate = 0.0;
  };
  std::unordered_map<std::uint32_t, State> flows_;
};

}  // namespace rpm::cc
