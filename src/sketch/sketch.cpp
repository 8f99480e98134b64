#include "sketch/sketch.h"

#include <cmath>
#include <cstring>

#include "common/codec.h"
#include "obs/flight_recorder.h"

namespace rpm::sketch {
namespace {

// gamma = (1+a)/(1-a); bucket index of v>0 is ceil(log(v)/log(gamma)).
// The boundaries depend only on kRelativeAccuracy, never on the data, so
// every sketch in the system buckets identically and merges bucket-wise.
const double kGamma = (1.0 + QuantileSketch::kRelativeAccuracy) /
                      (1.0 - QuantileSketch::kRelativeAccuracy);
const double kInvLogGamma = 1.0 / std::log(kGamma);

std::int32_t bucket_index(double v) {
  return static_cast<std::int32_t>(std::ceil(std::log(v) * kInvLogGamma));
}

// Representative value of bucket i: the point with equal relative error to
// both bucket edges, 2*gamma^i / (gamma+1).
double bucket_value(std::int32_t i) {
  return 2.0 * std::pow(kGamma, static_cast<double>(i)) / (kGamma + 1.0);
}

}  // namespace

// ---- QuantileSketch ----

void QuantileSketch::add(double v, std::uint64_t n) {
  if (n == 0) return;
  if (v > 0.0) {
    buckets_[bucket_index(v)] += n;
  } else {
    zero_count_ += n;  // renders as 0 and contributes 0 to sum()
  }
  count_ += n;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  for (const auto& [i, n] : other.buckets_) buckets_[i] += n;
  zero_count_ += other.zero_count_;
  count_ += other.count_;
}

void QuantileSketch::clear() {
  buckets_.clear();
  zero_count_ = 0;
  count_ = 0;
}

double QuantileSketch::sum() const {
  // Derived from the bucket state in ascending index order: identical
  // buckets => identical accumulation order => bit-identical result, no
  // matter how the sketch was assembled.
  double s = 0.0;
  for (const auto& [i, n] : buckets_) {
    s += bucket_value(i) * static_cast<double>(n);
  }
  return s;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t cum = zero_count_;
  if (target < cum) return 0.0;
  for (const auto& [i, n] : buckets_) {
    cum += n;
    if (target < cum) return bucket_value(i);
  }
  return buckets_.empty() ? 0.0 : bucket_value(buckets_.rbegin()->first);
}

std::size_t QuantileSketch::serialized_bytes() const {
  // count + zero_count + nbuckets header, then (index, count) entries.
  return 8 + 8 + 4 + buckets_.size() * (4 + 8);
}

void QuantileSketch::encode(std::vector<std::uint8_t>& out) const {
  codec::put_u64(out, count_);
  codec::put_u64(out, zero_count_);
  codec::put_u32(out, static_cast<std::uint32_t>(buckets_.size()));
  for (const auto& [i, n] : buckets_) {
    codec::put_u32(out, static_cast<std::uint32_t>(i));
    codec::put_u64(out, n);
  }
}

QuantileSketch QuantileSketch::decode(const std::vector<std::uint8_t>& in,
                                      std::size_t& off) {
  QuantileSketch s;
  s.count_ = codec::get_u64(in, off);
  s.zero_count_ = codec::get_u64(in, off);
  const std::uint32_t n = codec::get_u32(in, off);
  for (std::uint32_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::int32_t>(codec::get_u32(in, off));
    s.buckets_[i] = codec::get_u64(in, off);
  }
  return s;
}

// ---- LinkSketch ----

void LinkSketch::merge(const LinkSketch& other) {
  pkts += other.pkts;
  bytes += other.bytes;
  ecn_sum += other.ecn_sum;
  for (std::size_t i = 0; i < kDropReasonSlots; ++i) drops[i] += other.drops[i];
  hop_delay_ns.merge(other.hop_delay_ns);
  queue_bytes.merge(other.queue_bytes);
}

std::uint64_t LinkSketch::total_drops() const {
  std::uint64_t n = 0;
  for (const std::uint64_t d : drops) n += d;
  return n;
}

bool LinkSketch::empty() const { return pkts == 0 && total_drops() == 0; }

std::size_t LinkSketch::serialized_bytes() const {
  // pkts + bytes + ecn_sum + drop slots, then the two sketches.
  return 8 + 8 + 8 + 8 * kDropReasonSlots + hop_delay_ns.serialized_bytes() +
         queue_bytes.serialized_bytes();
}

// ---- SketchReport ----

std::size_t SketchReport::wire_bytes() const {
  // exporter + seq + period bounds + entry count header.
  std::size_t n = 8 + 8 + 8 + 8 + 4;
  for (const auto& [link, sk] : links) n += 4 + sk.serialized_bytes();
  return n;
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

// ---- LinkSketchBank ----

void LinkSketchBank::on_forward(std::uint32_t link, Bytes bytes,
                                TimeNs hop_delay_ns, Bytes queue_bytes,
                                double ecn_prob) {
  if (link >= links_.size()) return;
  LinkSketch& s = links_[link];
  s.pkts += 1;
  s.bytes += static_cast<std::uint64_t>(bytes);
  s.ecn_sum += ecn_prob;
  s.hop_delay_ns.add(static_cast<double>(hop_delay_ns));
  s.queue_bytes.add(static_cast<double>(queue_bytes));
  ++updates_;
}

void LinkSketchBank::on_drop(std::uint32_t link, std::uint8_t reason) {
  if (link >= links_.size()) return;
  links_[link].drops[reason % kDropReasonSlots] += 1;
  ++updates_;
}

std::vector<std::pair<std::uint32_t, LinkSketch>> LinkSketchBank::flush() {
  std::vector<std::pair<std::uint32_t, LinkSketch>> out;
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    if (links_[i].empty()) continue;
    out.emplace_back(i, std::move(links_[i]));
    links_[i] = LinkSketch{};
  }
  return out;
}

// ---- SketchStore ----

bool SketchStore::ingest(SketchReport&& rep) {
  if (!dedup_accept(dedup_[rep.exporter], rep.seq, kDedupWindow)) {
    ++duplicates_;
    m_duplicate_.inc();
    return false;
  }
  for (auto& [link, sk] : rep.links) links_[link].merge(sk);
  ++merged_;
  m_merged_.inc();
  if (rep.trace_id != 0) {
    obs::recorder().record(rep.trace_id, obs::ProbeEventKind::kSketchMerge,
                           rep.seq, rep.links.size());
  }
  return true;
}

std::map<std::uint32_t, LinkSketch> SketchStore::drain_period() {
  std::map<std::uint32_t, LinkSketch> out;
  out.swap(links_);
  return out;
}

}  // namespace rpm::sketch
