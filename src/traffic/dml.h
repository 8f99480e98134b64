// Distributed-ML service model.
//
// DML training alternates compute (network idle) and communication (network
// saturated) every few seconds, synchronizes all workers each iteration
// (barrel effect), and periodically checkpoints over CPU-hungry TCP
// (§2, §7.3). This module reproduces that traffic shape:
//
//  * Connections are real simulated RC QPs connected via modify_qp — so the
//    R-Pingmesh Agent's eBPF monitor observes the service 5-tuples exactly
//    as in production — paired with fluid flows carrying the bulk bytes.
//  * Each connection also posts periodic small RC sends ("keepalives")
//    standing in for in-flight messages: under flapping they retransmit and,
//    if the retry budget is exhausted, the connection breaks and the task
//    fails (§7.1 #1).
//  * Iterations: compute for `compute_time` (scaled by a slowdown knob used
//    to reproduce Figure 9's non-network degradation), then communicate
//    until EVERY flow has moved `comm_bytes` (the barrel effect).
//  * Checkpoints: every `checkpoint_interval` the job pauses communication
//    and pegs worker-host CPUs (TCP upload), reproducing Figure 5's
//    RTT-dip + processing-delay-spike signature.
//
// Throughput metric: `relative_throughput()` in [0,1] — the ratio of ideal
// to actual iteration duration, decaying live while an iteration overruns
// and 0 after task failure. This is the "training rate" the Analyzer's
// impact assessment watches (§4.3.4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "fabric/fabric.h"
#include "host/cluster.h"
#include "sim/scheduler.h"
#include "verbs/verbs.h"

namespace rpm::traffic {

enum class CommPattern : std::uint8_t {
  kAllReduceRing,  // worker i -> worker i+1 (mod N): N flows, gentle
  kAllToAll,       // every ordered pair: N(N-1) flows, heavy incast
  kIncast,         // workers[1..] -> workers[0]: many-to-one (Fig. 13)
};

const char* comm_pattern_name(CommPattern p);

struct DmlConfig {
  ServiceId service{0};
  std::vector<RnicId> workers;           // one rank per RNIC
  CommPattern pattern = CommPattern::kAllReduceRing;
  double per_flow_gbps = 40.0;           // demand during comm phases
  TimeNs compute_time = msec(800);       // per-iteration compute phase
  Bytes comm_bytes = 512LL * 1024 * 1024 / 8;  // per-flow bytes per iteration
  fabric::RateController* controller = nullptr;  // nullptr = fixed demand
  std::uint16_t base_port = 20000;

  // RC reliability knobs (the paper's ops guidance: crank these up, §7.1).
  int rc_max_retries = 7;
  TimeNs rc_retransmit_timeout = msec(4);
  TimeNs keepalive_interval = msec(100);  // in-flight message cadence

  // Checkpointing (0 interval disables).
  TimeNs checkpoint_interval = 0;
  TimeNs checkpoint_duration = sec(8);
};

/// One RC connection + fluid flow between two ranks.
struct DmlConnection {
  RnicId src;
  RnicId dst;
  FiveTuple tuple;
  FlowId flow;
  Qpn src_qpn;
  Qpn dst_qpn;
  bool broken = false;
};

class DmlService {
 public:
  DmlService(host::Cluster& cluster, DmlConfig cfg);
  ~DmlService();
  DmlService(const DmlService&) = delete;
  DmlService& operator=(const DmlService&) = delete;

  /// Establish all connections (firing modify_qp tracepoints) and begin the
  /// first iteration.
  void start();
  /// Tear everything down (firing destroy_qp tracepoints).
  void stop();

  /// Figure 9: slow the *compute* side down (>= 1). Network is untouched,
  /// but coarse-grained network throughput sags with it.
  void set_compute_slowdown(double factor);

  // ---- metrics the Analyzer / benches watch ----

  /// Training rate relative to the fault-free ideal, in [0, 1].
  [[nodiscard]] double relative_throughput() const;
  /// Mean achieved network rate across live flows right now (B/s).
  [[nodiscard]] double avg_network_throughput_Bps() const;
  [[nodiscard]] std::size_t iterations_completed() const { return iters_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] bool in_comm_phase() const { return phase_ == Phase::kComm; }
  [[nodiscard]] bool in_checkpoint() const {
    return phase_ == Phase::kCheckpoint;
  }
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] ServiceId id() const { return cfg_.service; }
  [[nodiscard]] const std::vector<DmlConnection>& connections() const {
    return conns_;
  }
  [[nodiscard]] const DmlConfig& config() const { return cfg_; }
  [[nodiscard]] TimeNs ideal_iteration_time() const;

 private:
  enum class Phase : std::uint8_t { kIdle, kCompute, kComm, kCheckpoint };

  void build_pairs();
  void begin_iteration();
  void begin_comm();
  void finish_iteration();
  void begin_checkpoint();
  void end_checkpoint();
  void poll_progress();
  void post_keepalives();
  void set_all_demands(double bps);
  void set_worker_cpu_load(double load);

  host::Cluster& cluster_;
  DmlConfig cfg_;
  std::vector<std::pair<RnicId, RnicId>> pairs_;
  std::vector<DmlConnection> conns_;
  std::vector<Bytes> moved_;  // per-connection bytes this comm phase

  Phase phase_ = Phase::kIdle;
  bool running_ = false;
  bool failed_ = false;
  double compute_slowdown_ = 1.0;
  std::size_t iters_ = 0;
  TimeNs iter_start_ = 0;
  TimeNs last_poll_ = 0;
  TimeNs last_checkpoint_ = 0;
  double last_completed_rel_ = 1.0;
  std::uint64_t epoch_ = 0;  // invalidates stale phase-transition events
  std::uint64_t next_keepalive_wr_ = 1;
  sim::PeriodicTask poll_task_;
  sim::PeriodicTask keepalive_task_;
};

}  // namespace rpm::traffic
