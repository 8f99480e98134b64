// Shared vocabulary of the repository benchmark (see README.md).
//
// A workload is run as a sequence of passes. Each pass does the workload's
// set-up and then its measured phase on freshly built state, so every pass
// of one seed does exactly the same work; the driver in main.cpp repeats
// passes for the requested seconds and reports medians.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "prof/prof.h"

namespace rpm::perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // shortened inputs for the benchmark's own tests
};

enum class PassMode : std::uint8_t {
  kSetupOnly,  // time the set-up, then tear it down
  kUntraced,   // set-up + measured phase, no per-layer instrumentation
  kTraced,     // the same, with the per-layer instrumentation on
};

/// Everything one pass measured.
struct Pass {
  /// Set-up and measured-phase wall time, rescaled to the reference host
  /// speed (calib.h), and as read off the clock.
  double setup_s = 0.0;
  double wall_s = 0.0;
  double raw_setup_s = 0.0;
  double raw_wall_s = 0.0;
  /// Rescaled wall time of each period close (period close to verdict), ms.
  std::vector<double> close_ms;
  /// Diagnosis accounting: scored operations and the failed ones.
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  /// First correctness failure; empty when the pass was correct.
  std::string error;
  /// Deterministic output bytes (ChaosReport JSON or the replay verdict
  /// digest). Two passes of one seed must agree byte for byte.
  std::string report;
  std::uint64_t sim_events = 0;
  /// Per-layer metrics by name (traced passes only).
  std::map<std::string, double> layers;
};

/// Workload parameters echoed into the result's provenance.
using Params = std::map<std::string, std::string>;

struct Workload {
  const char* name;
  Params (*params)(const Options& opt);
  Pass (*run_pass)(const Options& opt, PassMode mode);
};

Params dml_alltoall_params(const Options& opt);
Pass dml_alltoall_pass(const Options& opt, PassMode mode);
Params fed_sketch_chaos_params(const Options& opt);
Pass fed_sketch_chaos_pass(const Options& opt, PassMode mode);
Params analyzer_replay_params(const Options& opt);
Pass analyzer_replay_pass(const Options& opt, PassMode mode);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Total wall time a profiler stage recorded, ms.
inline double stage_ms(const prof::ProfileReport& rep, prof::Stage s) {
  return static_cast<double>(rep.stage(s).total_ns) / 1e6;
}

/// Exact order statistic (nearest rank on a sorted copy); 0 when empty.
double percentile(std::vector<double> v, double q);

}  // namespace rpm::perf
