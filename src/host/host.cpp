#include "host/host.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rpm::host {

namespace {

constexpr TimeNs kBaseProcessDelay = usec(3);  // healthy-host wakeup latency
constexpr double kOverloadThreshold = 0.9;  // load above this grows tails fast
constexpr TimeNs kOverloadTail = msec(30);  // typical stall when overloaded
constexpr double kStarveThreshold = 0.99;   // "service occupies every core"
constexpr TimeNs kStarveTail = msec(900);   // stall that exceeds probe timeout
constexpr double kStarveProb = 0.25;  // chance a wakeup hits the big stall

}  // namespace

HostModel::HostModel(HostId id, sim::Scheduler& sched,
                     sim::DeviceClock clock, Rng rng)
    : id_(id), sched_(sched), clock_(clock), rng_(rng) {}

void HostModel::set_cpu_load(double load) {
  if (load < 0.0 || load > 1.0) {
    throw std::invalid_argument("set_cpu_load: load must be in [0, 1]");
  }
  cpu_load_ = load;
}

TimeNs HostModel::sample_process_delay() {
  // Queueing-flavoured growth: mean delay scales like 1/(1-load), with an
  // extra heavy tail once the host is overloaded and a probe-timeout-scale
  // stall when the service starves the Agent of CPU entirely.
  const double load = std::min(cpu_load_, 0.995);
  const double mean = static_cast<double>(kBaseProcessDelay) / (1.0 - load);
  TimeNs d = static_cast<TimeNs>(rng_.exponential(mean));

  if (cpu_load_ >= kOverloadThreshold) {
    const double sev = (cpu_load_ - kOverloadThreshold) /
                       std::max(1e-9, 1.0 - kOverloadThreshold);
    d += static_cast<TimeNs>(
        rng_.exponential(static_cast<double>(kOverloadTail) * sev));
  }
  if (cpu_load_ >= kStarveThreshold && rng_.chance(kStarveProb)) {
    d += static_cast<TimeNs>(
        rng_.uniform(0.3 * static_cast<double>(kStarveTail),
                     1.7 * static_cast<double>(kStarveTail)));
  }
  return d;
}

}  // namespace rpm::host
