#include "sketch/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/codec.h"

namespace rpm::sketch {
namespace {

// gamma = (1+a)/(1-a); bucket index of v>0 is ceil(log(v)/log(gamma)).
// The boundaries depend only on kRelativeAccuracy, never on the data, so
// every sketch in the system buckets identically and merges bucket-wise.
const double kGamma = (1.0 + QuantileSketch::kRelativeAccuracy) /
                      (1.0 - QuantileSketch::kRelativeAccuracy);
const double kInvLogGamma = 1.0 / std::log(kGamma);

std::int32_t bucket_index(double v) {
  // +inf shares the top finite bucket instead of overflowing the cast.
  v = std::min(v, std::numeric_limits<double>::max());
  return static_cast<std::int32_t>(std::ceil(std::log(v) * kInvLogGamma));
}

// The buckets finite positive doubles reach; decode() rejects any other.
const std::int32_t kMinIndex =
    bucket_index(std::numeric_limits<double>::denorm_min());
const std::int32_t kMaxIndex =
    bucket_index(std::numeric_limits<double>::max());

// Representative value of bucket i: the point with equal relative error to
// both bucket edges, 2*gamma^i / (gamma+1).
double bucket_value(std::int32_t i) {
  return 2.0 * std::pow(kGamma, static_cast<double>(i)) / (kGamma + 1.0);
}

}  // namespace

// ---- QuantileSketch ----

void QuantileSketch::widen(std::int32_t lo, std::int32_t hi) {
  if (counts_.empty()) {
    offset_ = lo;
    counts_.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    return;
  }
  if (lo < offset_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(offset_ - lo), 0);
    offset_ = lo;
  }
  const auto need = static_cast<std::size_t>(hi - offset_) + 1;
  if (need > counts_.size()) counts_.resize(need, 0);
}

void QuantileSketch::add(double v, std::uint64_t n) {
  if (n == 0) return;
  count_ += n;
  if (v > 0.0) {
    const std::int32_t i = bucket_index(v);
    widen(i, i);
    counts_[static_cast<std::size_t>(i - offset_)] += n;
  } else {
    zero_count_ += n;  // renders as 0 and contributes 0 to sum()
  }
}

void QuantileSketch::merge(const QuantileSketch& other) {
  zero_count_ += other.zero_count_;
  count_ += other.count_;
  if (other.counts_.empty()) return;
  widen(other.offset_,
        other.offset_ + static_cast<std::int32_t>(other.counts_.size()) - 1);
  const auto at = static_cast<std::size_t>(other.offset_ - offset_);
  for (std::size_t k = 0; k < other.counts_.size(); ++k) {
    counts_[at + k] += other.counts_[k];
  }
}

double QuantileSketch::sum() const {
  // Derived from the bucket state in ascending index order: identical
  // buckets => identical accumulation order => bit-identical result, no
  // matter how the sketch was assembled.
  double s = 0.0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] == 0) continue;
    s += bucket_value(offset_ + static_cast<std::int32_t>(k)) *
         static_cast<double>(counts_[k]);
  }
  return s;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Clamped: past 2^53 samples the double product can round up to count_.
  const std::uint64_t rank = std::min(
      count_ - 1,
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1) + 0.5));
  std::uint64_t cum = zero_count_;
  if (rank < cum) return 0.0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    cum += counts_[k];
    if (rank < cum) return bucket_value(offset_ + static_cast<std::int32_t>(k));
  }
  return 0.0;  // unreachable: count_ is the zero count plus every bucket
}

std::size_t QuantileSketch::num_buckets() const {
  return counts_.size() -
         static_cast<std::size_t>(std::count(counts_.begin(), counts_.end(), 0));
}

std::size_t QuantileSketch::serialized_bytes() const {
  // count + zero_count + nbuckets header, then (index, count) entries.
  return 8 + 8 + 4 + num_buckets() * (4 + 8);
}

void QuantileSketch::encode(std::vector<std::uint8_t>& out) const {
  codec::put_u64(out, count_);
  codec::put_u64(out, zero_count_);
  codec::put_u32(out, static_cast<std::uint32_t>(num_buckets()));
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] == 0) continue;
    codec::put_u32(out, static_cast<std::uint32_t>(
                            offset_ + static_cast<std::int32_t>(k)));
    codec::put_u64(out, counts_[k]);
  }
}

QuantileSketch QuantileSketch::decode(const std::vector<std::uint8_t>& in,
                                      std::size_t& off) {
  QuantileSketch s;
  const std::uint64_t count = codec::get_u64(in, off);
  s.zero_count_ = codec::get_u64(in, off);
  const std::uint32_t n = codec::get_u32(in, off);
  std::uint64_t total = s.zero_count_;
  for (std::uint32_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::int32_t>(codec::get_u32(in, off));
    const std::uint64_t c = codec::get_u64(in, off);
    // Bounding the index bounds what the dense store allocates.
    if (i < kMinIndex || i > kMaxIndex) {
      throw std::runtime_error("QuantileSketch: bucket index out of range");
    }
    if (c == 0) throw std::runtime_error("QuantileSketch: empty bucket");
    if (!s.counts_.empty() &&
        i <= s.offset_ + static_cast<std::int32_t>(s.counts_.size()) - 1) {
      throw std::runtime_error("QuantileSketch: bucket indices not ascending");
    }
    if (c > std::numeric_limits<std::uint64_t>::max() - total) {
      throw std::runtime_error("QuantileSketch: bucket counts overflow");
    }
    total += c;
    s.widen(i, i);
    s.counts_.back() = c;
  }
  if (total != count) {
    throw std::runtime_error("QuantileSketch: count is not the bucket sum");
  }
  s.count_ = count;
  return s;
}

// ---- HostSummary ----

void HostSummary::merge(const HostSummary& other) {
  folded_records += other.folded_records;
  for (const auto& [pair, n] : other.tormesh_ok) tormesh_ok[pair] += n;
  for (const auto& [rnic, sk] : other.ok_delay_by_target) {
    ok_delay_by_target[rnic].merge(sk);
  }
  rtt.merge(other.rtt);
}

std::size_t HostSummary::serialized_bytes() const {
  std::size_t n = 8 + 4 + 4;  // folded count + two entry-count headers
  n += tormesh_ok.size() * (4 + 4 + 8);
  for (const auto& [rnic, sk] : ok_delay_by_target) {
    n += 4 + sk.serialized_bytes();
  }
  n += rtt.serialized_bytes();
  return n;
}

}  // namespace rpm::sketch
