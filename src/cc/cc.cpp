#include "cc/cc.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rpm::cc {

namespace {

// DCQCN.
constexpr double kG = 1.0 / 16.0;  // alpha EWMA gain (per marked update)
constexpr double kRateAiBps = gbps_to_Bps(0.4);   // additive increase step
constexpr double kRateHaiBps = gbps_to_Bps(2.0);  // hyper increase step
constexpr TimeNs kIncreasePeriod = usec(300);  // time between increase events
constexpr TimeNs kDecreaseMinGap = usec(50);   // at most one cut per gap
constexpr int kFastRecoveryRounds = 3;  // rounds of (Rc+Rt)/2 averaging
constexpr double kMinRateBps = gbps_to_Bps(0.1);

// DelayCc.
constexpr TimeNs kTargetDelay = usec(8);  // steer path queueing delay here
constexpr double kBeta = 0.6;  // max multiplicative decrease strength
constexpr double kAdditiveGain = 0.05;  // line-rate fraction added when below
constexpr double kMinRateFrac = 0.01;   // floor as a fraction of line rate

}  // namespace

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
    s.alpha = (1.0 - kG) * s.alpha + kG * fb.ecn_fraction;
    if (s.since_decrease >= kDecreaseMinGap) {
      s.target_rate = rate;
      rate = std::max(kMinRateBps, rate * (1.0 - s.alpha / 2.0));
      s.since_decrease = 0;
      s.recovery_round = 0;
    }
  } else {
    s.alpha = (1.0 - kG) * s.alpha;
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
    //    kEcnPmax / (kEcnKmax - kEcnKmin) ~ 2.7e-8 (fabric.cpp).
    if (s.alpha < std::numeric_limits<double>::min()) s.alpha = 0.0;
    if (s.since_increase >= kIncreasePeriod) {
      s.since_increase = 0;
      if (s.recovery_round < kFastRecoveryRounds) {
        // Fast recovery: halve the gap to the pre-cut target.
        ++s.recovery_round;
      } else if (s.recovery_round < 2 * kFastRecoveryRounds) {
        // Additive increase grows the target.
        s.target_rate += kRateAiBps;
        ++s.recovery_round;
      } else {
        // Hyper increase once the path has stayed clean for a long time.
        s.target_rate += kRateHaiBps;
      }
      s.target_rate = std::min(s.target_rate, s.line_rate);
      rate = (rate + s.target_rate) / 2.0;
    }
  }
  return std::clamp(rate, kMinRateBps, s.line_rate);
}

double DelayCc::reset(std::uint32_t flow_slot, double demand_Bps,
                      double line_rate_Bps) {
  flows_[flow_slot] = State{line_rate_Bps};
  return std::min(demand_Bps, line_rate_Bps);
}

double DelayCc::update(std::uint32_t flow_slot, const fabric::CcFeedback& fb,
                       double current_rate_Bps) {
  const State& s = flows_[flow_slot];
  const double target = static_cast<double>(kTargetDelay);
  const double delay = static_cast<double>(fb.queue_delay);
  double rate = current_rate_Bps;
  if (delay > target) {
    // Multiplicative decrease proportional to how far past target we are.
    const double overshoot = std::min(1.0, (delay - target) / delay);
    rate *= (1.0 - kBeta * overshoot);
  } else {
    // Below target: probe upward additively.
    rate += kAdditiveGain * s.line_rate *
            to_seconds(fb.dt) / to_seconds(usec(100));
  }
  const double floor = kMinRateFrac * s.line_rate;
  return std::clamp(rate, floor, s.line_rate);
}

}  // namespace rpm::cc
