#include "calib.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

namespace rpm::perf {
namespace {

volatile std::uint64_t g_sink = 0;

std::array<std::uint64_t, 4096> g_heap;
// Three phases with different footprints, so the kernel sees slowdowns that
// stay inside a core's caches, those of the shared caches and those of
// memory.
std::array<std::uint64_t, std::size_t{1} << 14> g_small;  // 128 KiB
std::array<std::uint64_t, std::size_t{1} << 17> g_large;  // 1 MiB
constexpr std::size_t kMemoryWords = kKernelTableBytes / sizeof(std::uint64_t);

/// The memory phase's table, every page touched at first use.
std::vector<std::uint64_t>& memory_table() {
  static std::vector<std::uint64_t> table(kMemoryWords, 1);
  return table;
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// `steps` heap pushes (popping beyond g_heap's capacity) and two random
/// table accesses per step.
template <std::size_t N>
std::uint64_t heap_and_table(std::array<std::uint64_t, N>& table, int steps) {
  constexpr std::uint64_t kMask = N - 1;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  std::size_t n = 0;
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t v = xorshift(x);
    if (n == g_heap.size()) {
      std::pop_heap(g_heap.begin(), g_heap.begin() + n, std::greater<>());
      acc += g_heap[--n];
    }
    g_heap[n++] = v >> 20;
    std::push_heap(g_heap.begin(), g_heap.begin() + n, std::greater<>());
    table[v & kMask] += static_cast<std::uint64_t>(i);
    acc += table[(v >> 17) & kMask];
  }
  return acc;
}

/// `steps` random read-modify-writes and reads over the memory table.
std::uint64_t memory_walk(int steps) {
  std::vector<std::uint64_t>& table = memory_table();
  constexpr std::uint64_t kMask = kMemoryWords - 1;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  std::uint64_t acc = 0;
  for (int i = 0; i < steps; ++i) {
    const std::uint64_t v = xorshift(x);
    table[v & kMask] += static_cast<std::uint64_t>(i);
    acc += table[(v >> 29) & kMask];
  }
  return acc;
}

}  // namespace

double time_kernel() {
  memory_table();  // not timed: the first call touches its pages
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t acc = heap_and_table(g_small, 20000) +
                            heap_and_table(g_large, 15000) +
                            memory_walk(40000);
  g_sink = g_sink + acc;
  return seconds_since(t0);
}

void PacedClock::start() {
  kernel_s_ = time_kernel();
  begin_ = Clock::now();
}

void PacedClock::stop() {
  const Clock::time_point end = Clock::now();
  const double k = time_kernel();
  slices_.push_back({begin_, end, 2.0 * kKernelNominalS / (kernel_s_ + k)});
  kernel_s_ = k;
}

void PacedClock::cut() {
  stop();
  begin_ = Clock::now();
}

double PacedClock::raw_s() const {
  double s = 0.0;
  for (const Slice& sl : slices_) {
    s += std::chrono::duration<double>(sl.end - sl.begin).count();
  }
  return s;
}

double PacedClock::scaled_s() const {
  double s = 0.0;
  for (const Slice& sl : slices_) {
    s += std::chrono::duration<double>(sl.end - sl.begin).count() * sl.factor;
  }
  return s;
}

double PacedClock::factor_at(Clock::time_point t) const {
  if (slices_.empty()) return 1.0;
  // First slice ending after t; a kernel run between two slices counts
  // toward the later one.
  const auto it = std::lower_bound(
      slices_.begin(), slices_.end(), t,
      [](const Slice& sl, Clock::time_point at) { return sl.end < at; });
  return it == slices_.end() ? slices_.back().factor : it->factor;
}

double PacedClock::last_factor() const {
  return slices_.empty() ? 1.0 : slices_.back().factor;
}

}  // namespace rpm::perf
