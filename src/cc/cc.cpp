#include "cc/cc.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rpm::cc {

double Dcqcn::reset(std::uint32_t flow_slot, double demand_Bps,
                    double line_rate_Bps) {
  State s;
  s.line_rate = line_rate_Bps;
  s.target_rate = std::min(demand_Bps, line_rate_Bps);
  s.alpha = 1.0;
  flows_[flow_slot] = s;
  // DCQCN starts at line rate (demand-capped) and reacts to marks.
  return s.target_rate;
}

double Dcqcn::update(std::uint32_t flow_slot, const fabric::CcFeedback& fb,
                     double current_rate_Bps) {
  State& s = flows_[flow_slot];
  double rate = current_rate_Bps;
  s.since_decrease += fb.dt;
  s.since_increase += fb.dt;

  if (fb.ecn_fraction > 0.0) {
    // CNP received this window: update alpha and cut (rate-limited).
    s.alpha = (1.0 - params_.g) * s.alpha + params_.g * fb.ecn_fraction;
    if (s.since_decrease >= params_.decrease_min_gap) {
      s.target_rate = rate;
      rate = std::max(params_.min_rate_Bps, rate * (1.0 - s.alpha / 2.0));
      s.since_decrease = 0;
      s.recovery_round = 0;
    }
  } else {
    s.alpha = (1.0 - params_.g) * s.alpha;
    // Flush alpha to 0 once it decays below the smallest normal double.
    // Below it every multiply on alpha takes a slow microcode assist, and
    // at the smallest subnormal (1-g)*alpha rounds back to alpha, so alpha
    // never reaches 0 by itself. No rate moves: a subnormal alpha reaches a
    // rate in only two places.
    //  * The cut rate*(1 - alpha/2): 1 - alpha/2 rounds to exactly 1.0, as
    //    it does for alpha = 0.
    //  * The next marked EWMA (1-g)*alpha + g*ecn_fraction: (1-g)*alpha lies
    //    far below half an ulp of g*ecn_fraction, so the sum rounds to the
    //    same double. That holds for any marked fraction above ~1e-290; the
    //    fabric's smallest nonzero one is about
    //    ecn_pmax / (ecn_kmax - ecn_kmin) ~ 2.7e-8.
    if (s.alpha < std::numeric_limits<double>::min()) s.alpha = 0.0;
    if (s.since_increase >= params_.increase_period) {
      s.since_increase = 0;
      if (s.recovery_round < params_.fast_recovery_rounds) {
        // Fast recovery: halve the gap to the pre-cut target.
        ++s.recovery_round;
      } else if (s.recovery_round < 2 * params_.fast_recovery_rounds) {
        // Additive increase grows the target.
        s.target_rate += params_.rate_ai_Bps;
        ++s.recovery_round;
      } else {
        // Hyper increase once the path has stayed clean for a long time.
        s.target_rate += params_.rate_hai_Bps;
      }
      s.target_rate = std::min(s.target_rate, s.line_rate);
      rate = (rate + s.target_rate) / 2.0;
    }
  }
  return std::clamp(rate, params_.min_rate_Bps, s.line_rate);
}

double DelayCc::reset(std::uint32_t flow_slot, double demand_Bps,
                      double line_rate_Bps) {
  flows_[flow_slot] = State{line_rate_Bps};
  return std::min(demand_Bps, line_rate_Bps);
}

double DelayCc::update(std::uint32_t flow_slot, const fabric::CcFeedback& fb,
                       double current_rate_Bps) {
  const State& s = flows_[flow_slot];
  const double target = static_cast<double>(params_.target_delay);
  const double delay = static_cast<double>(fb.queue_delay);
  double rate = current_rate_Bps;
  if (delay > target) {
    // Multiplicative decrease proportional to how far past target we are.
    const double overshoot = std::min(1.0, (delay - target) / delay);
    rate *= (1.0 - params_.beta * overshoot);
  } else {
    // Below target: probe upward additively.
    rate += params_.additive_gain * s.line_rate *
            to_seconds(fb.dt) / to_seconds(usec(100));
  }
  const double floor = params_.min_rate_frac * s.line_rate;
  return std::clamp(rate, floor, s.line_rate);
}

}  // namespace rpm::cc
