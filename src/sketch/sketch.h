// Mergeable sketch summaries: the one statistics backend of the Analyzer and
// of sketch mode (AnalyzerConfig::sketch_mode).
//
// R-Pingmesh ships every probe record to the Analyzer, which caps cluster
// scale on ingest volume long before probing capacity runs out. In sketch
// mode each Agent folds its healthy probe records into a mergeable
// `HostSummary` per `UploadBatch` instead of shipping each record; every
// timeout and outlier still ships raw, and the Analyzer reads the summaries
// where it would have read the folded records. `QuantileSketch` is also the
// only place an Analyzer percentile comes from (its per-RNIC and per-host
// delay tables and every SLA table, flat tier and pods alike), and it backs
// the telemetry histograms and the profiler's per-stage percentiles.
//
// Determinism is load-bearing (the repo-wide invariant: same seed =>
// byte-identical verdicts), so the quantile sketch is a fixed-boundary
// DDSketch: logarithmic buckets at positions fixed by the relative-accuracy
// constant alone, integer counts, and a bucket-wise merge that is
// commutative and associative. Merging sketches in any grouping/order
// yields byte-identical state — no RNG, no data-dependent boundaries, no
// merge-order sensitivity.
//
// Both types are sized in bytes (`serialized_bytes`); the upload and digest
// channels declare those sizes, and rpm_transport_bytes_total counts them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace rpm::sketch {

/// Fixed-boundary DDSketch over positive values (nanoseconds, bytes):
/// bucket i covers (gamma^(i-1), gamma^i] with gamma = (1+a)/(1-a) for
/// relative accuracy a = 1 %. Non-positive values land in a dedicated zero
/// bucket. quantile() is within `kRelativeAccuracy` of the true value;
/// merge() is bucket-wise addition — commutative, associative, and
/// deterministic regardless of merge order or sharding.
class QuantileSketch {
 public:
  static constexpr double kRelativeAccuracy = 0.01;

  /// The bucket a value lands in. Computing it takes the logarithm, so a
  /// value added to several sketches is bucketed once.
  struct Bucket {
    std::int32_t index = 0;
    bool zero = true;  // non-positive or NaN: the zero bucket
  };
  /// +inf lands in the top finite bucket.
  [[nodiscard]] static Bucket bucket_of(double v);

  /// Adds n values of bucket `b`, as bucket_of() returned it. A bucket
  /// inside the dense range is one increment.
  void add(Bucket b, std::uint64_t n = 1) {
    if (n == 0) return;
    count_ += n;
    if (b.zero) {
      zero_count_ += n;  // renders as 0 and contributes 0 to sum()
      return;
    }
    if (b.index < offset_ ||
        static_cast<std::size_t>(b.index - offset_) >= counts_.size()) {
      widen(b.index, b.index);
    }
    counts_[static_cast<std::size_t>(b.index - offset_)] += n;
  }
  void add(double v, std::uint64_t n = 1) { add(bucket_of(v), n); }
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Approximate sample sum, derived from the bucket state (counts times
  /// bucket midpoints, ascending index). Derived — never accumulated — so it
  /// is bit-identical for any add/merge grouping; a running double sum would
  /// pick up order-dependent rounding and break the byte-identical-merge
  /// guarantee. Within kRelativeAccuracy of the true sum.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum() / static_cast<double>(count_);
  }
  /// q in [0,1]; 0 when empty. The value of the bucket holding the sample
  /// of nearest rank q*(n-1) (the rank the exact reference in
  /// common/stats.h takes), so it is within kRelativeAccuracy of the exact
  /// percentile.
  [[nodiscard]] double quantile(double q) const;
  /// Buckets holding at least one value (the zero bucket aside).
  [[nodiscard]] std::size_t num_buckets() const;

  /// Exact wire size of encode()'s output (header + one entry per bucket).
  [[nodiscard]] std::size_t serialized_bytes() const;
  /// Append a canonical little-endian encoding; same state => same bytes,
  /// which is what the merge-determinism tests compare.
  void encode(std::vector<std::uint8_t>& out) const;
  /// Inverse of encode(); advances `off` past the consumed bytes. Throws
  /// std::runtime_error on a truncated buffer and on any entry encode()
  /// cannot have written: a bucket index no finite positive double reaches,
  /// a zero bucket count, indices not strictly ascending, or a total count
  /// other than the zero count plus the bucket counts. Whatever it accepts
  /// encodes back to exactly the bytes it consumed.
  static QuantileSketch decode(const std::vector<std::uint8_t>& in,
                               std::size_t& off);

 private:
  // Makes counts_ cover buckets lo..hi.
  void widen(std::int32_t lo, std::int32_t hi);

  // Dense counts of buckets offset_, offset_+1, ...: the first and last
  // entries are the lowest and highest used buckets, so the state is
  // canonical however it was built. Empty when no positive value was added.
  std::vector<std::uint64_t> counts_;
  std::int32_t offset_ = 0;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
};

/// The mergeable summary of the healthy probe records an Agent folded out
/// of an UploadBatch instead of shipping raw (AnalyzerConfig::sketch_mode
/// == kOn). Carries exactly what the Analyzer consumes from healthy OK
/// records: exact per-(prober,target) ToR-mesh OK counts for the §4.3.2
/// timeout-ratio test, per-target-RNIC responder-delay sketches for the
/// Fig-6 CPU-noise filters and the processing-delay bottleneck scan, and a
/// cluster RTT sketch for SLA percentiles. Ordered maps keep iteration
/// deterministic.
struct HostSummary {
  std::uint64_t folded_records = 0;
  /// OK ToR-mesh probes by (prober rnic id, target rnic id) — exact counts,
  /// so Algorithm-1 timeout ratios are identical to raw-record mode.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> tormesh_ok;
  /// Responder delay (④-③) of folded OK records, by target rnic id.
  std::map<std::uint32_t, QuantileSketch> ok_delay_by_target;
  /// Network RTT of folded OK cluster-monitoring records.
  QuantileSketch rtt;

  [[nodiscard]] bool empty() const { return folded_records == 0; }
  [[nodiscard]] std::size_t serialized_bytes() const;
};

}  // namespace rpm::sketch
