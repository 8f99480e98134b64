// Host-speed calibration.
//
// The benchmark shares a host whose speed drifts by tens of percent over
// seconds (neighbours' load, frequency changes): the same pass of the same
// seed takes anywhere from 5.4 s to 8.4 s. Every reported time is therefore
// cut into slices, and each slice is rescaled by a fixed reference kernel
// run at both of its ends:
//
//   scaled = raw * kKernelNominalS / mean(kernel time before, kernel time after)
//
// so a time reads as it would on a host where the kernel takes
// kKernelNominalS. The kernel is code of the benchmark, not of the program
// under test, so a change to the program moves the scaled times exactly as
// it moves the raw ones; only the host's momentary speed cancels out.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.h"

namespace rpm::perf {

/// Typical time of one reference-kernel run (measured on a 4-vCPU Xeon
/// guest); scaled times are seconds at this speed.
constexpr double kKernelNominalS = 0.004;

/// Size of the kernel's memory-bound table. It stays resident from the
/// first kernel run on, so the reported peak RSS leaves it out.
constexpr std::size_t kKernelTableBytes = std::size_t{64} << 20;

/// Runs the reference kernel once and returns its wall seconds. Each run
/// does the same work on storage that outlives it (no allocation): a binary
/// heap with random updates of a 128 KiB and a 1 MiB table, then random
/// read-modify-writes over the 64 MiB table.
double time_kernel();

/// Wall time of a piece of work, cut into slices that are each rescaled to
/// the reference speed. Kernel runs fall between slices, never inside one.
class PacedClock {
 public:
  /// Samples the host speed and begins a slice.
  void start();
  /// Ends the current slice, samples the host speed, begins the next one.
  void cut();
  /// Ends the current slice and samples the host speed.
  void stop();

  /// Sum of the slices' raw wall time, s.
  [[nodiscard]] double raw_s() const;
  /// Sum of the slices' rescaled wall time, s.
  [[nodiscard]] double scaled_s() const;
  /// Rescale factor of the slice that holds `t` (the nearest slice when `t`
  /// falls between slices); 1 before any slice ended.
  [[nodiscard]] double factor_at(Clock::time_point t) const;
  /// Rescale factor of the last slice that ended.
  [[nodiscard]] double last_factor() const;

 private:
  struct Slice {
    Clock::time_point begin;
    Clock::time_point end;
    double factor;
  };
  std::vector<Slice> slices_;
  Clock::time_point begin_;
  double kernel_s_ = 0.0;
};

}  // namespace rpm::perf
