// Host (server) model: CPU load, userspace scheduling delay, host clock,
// down/reboot state, and the per-host tracepoint registry.
//
// Why this matters to the paper:
//  * Software-timestamped RTT (Pingmesh) includes two userspace scheduling
//    delays, so it tracks host load rather than the network (Figure 2).
//  * The responder-side processing delay R-Pingmesh measures (④-③) is this
//    scheduling delay plus DMA; CPU overload shows up there (Figure 8 left).
//  * A service pegging every core can delay the Agent so long that probes
//    time out and look like multi-RNIC drops (Figure 6 right).
#pragma once

#include <functional>

#include "common/rng.h"
#include "common/types.h"
#include "sim/clock.h"
#include "sim/scheduler.h"
#include "verbs/verbs.h"

namespace rpm::host {

class HostModel {
 public:
  HostModel(HostId id, sim::Scheduler& sched, sim::DeviceClock clock,
            Rng rng);

  [[nodiscard]] HostId id() const { return id_; }

  /// Average CPU load in [0, 1].
  [[nodiscard]] double cpu_load() const { return cpu_load_; }
  void set_cpu_load(double load);

  /// Host power state. A down host runs no Agent and answers nothing.
  [[nodiscard]] bool is_down() const { return down_; }
  void set_down(bool down) { down_ = down; }

  /// Sample the delay between an event (e.g. a CQE arriving) and the
  /// userspace process actually acting on it. Load-dependent, with a heavy
  /// tail above 90% load and probe-timeout-scale stalls above 99%.
  [[nodiscard]] TimeNs sample_process_delay();

  /// The host's own clock (used for application timestamps ① and ⑥; offset
  /// and drift differ from every RNIC clock).
  [[nodiscard]] const sim::DeviceClock& clock() const { return clock_; }
  [[nodiscard]] TimeNs host_now() const { return clock_.read(sched_.now()); }

  [[nodiscard]] verbs::TracepointRegistry& tracepoints() {
    return tracepoints_;
  }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

 private:
  HostId id_;
  sim::Scheduler& sched_;
  sim::DeviceClock clock_;
  Rng rng_;
  double cpu_load_ = 0.2;
  bool down_ = false;
  verbs::TracepointRegistry tracepoints_;
};

}  // namespace rpm::host
