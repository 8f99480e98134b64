// Switch-side mergeable sketch summaries (ROADMAP "Switch-side sketch
// summaries"; cf. "Memory-Efficient Performance Monitoring on Programmable
// Switches with Lean Algorithms").
//
// R-Pingmesh ships every probe record to the Analyzer, which caps cluster
// scale on ingest volume long before probing capacity runs out. This module
// is the new layer between the fabric and the Analyzer that fixes that:
// simulated switches keep a small mergeable summary per link — drop/ECN
// counters plus quantile sketches of the link's per-hop RTT contribution and
// queue depth — exported once per 5 s period as a `SketchReport` over the
// control-plane transport. The Analyzer merges reports into a `SketchStore`;
// the link sketches corroborate a switch verdict (its `sketch_link_drops`
// evidence) and count the links that show drops, but select no records.
// Agents fold healthy probe records into a mergeable `HostSummary` per
// `UploadBatch` instead of shipping each record; every timeout and outlier
// still ships raw.
//
// Determinism is load-bearing (the repo-wide invariant: same seed =>
// byte-identical verdicts), so the quantile sketch is a fixed-boundary
// DDSketch: logarithmic buckets at positions fixed by the relative-accuracy
// constant alone, integer counts, and a bucket-wise merge that is
// commutative and associative. Merging sketches in any grouping/order
// yields byte-identical state — no RNG, no data-dependent boundaries, no
// merge-order sensitivity.
//
// Everything is sized in bytes (`serialized_bytes`/`wire_bytes`) so the
// transport's per-channel bandwidth cost model can charge reports and
// batches for the wire they occupy.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dedup.h"
#include "common/types.h"
#include "telemetry/metrics.h"

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

  void add(double v, std::uint64_t n = 1);
  void merge(const QuantileSketch& other);
  void clear();

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
  /// q in [0,1]; 0 when empty. Error relative to the true sample quantile is
  /// bounded by kRelativeAccuracy.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }

  /// Exact wire size of encode()'s output (header + one entry per bucket).
  [[nodiscard]] std::size_t serialized_bytes() const;
  /// Append a canonical little-endian encoding; same state => same bytes,
  /// which is what the merge-determinism tests compare.
  void encode(std::vector<std::uint8_t>& out) const;
  /// Inverse of encode(); advances `off` past the consumed bytes. Throws
  /// std::runtime_error on a truncated buffer.
  static QuantileSketch decode(const std::vector<std::uint8_t>& in,
                               std::size_t& off);

 private:
  std::map<std::int32_t, std::uint64_t> buckets_;  // ordered: deterministic
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
};

/// Drop-reason slots in LinkSketch::drops. Indexed by the fabric's
/// DropReason enum value (passed as a plain uint8_t so this layer does not
/// depend on src/fabric; src/fabric depends on us).
constexpr std::size_t kDropReasonSlots = 8;

/// One link's summary for one export period: traffic counters, drops by
/// reason, ECN marking, and quantile sketches of the link's per-hop latency
/// contribution and queue depth. Mergeable in any order.
struct LinkSketch {
  std::uint64_t pkts = 0;
  std::uint64_t bytes = 0;
  /// Sum of the RED-curve ECN mark probabilities seen by forwarded RoCE
  /// datagrams; ecn_sum / pkts is the period's expected marking rate.
  double ecn_sum = 0.0;
  std::array<std::uint64_t, kDropReasonSlots> drops{};
  QuantileSketch hop_delay_ns;  // propagation + serialization + queueing
  QuantileSketch queue_bytes;   // egress queue depth at forward time

  void merge(const LinkSketch& other);
  [[nodiscard]] std::uint64_t total_drops() const;
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t serialized_bytes() const;
};

/// One period's flush from a LinkSketchBank, shipped over a transport
/// Channel — sequenced, deduplicated, and retried until acked exactly like
/// an Agent's UploadBatch.
struct SketchReport {
  std::uint64_t exporter = 0;  // owner tag (one bank per fabric)
  std::uint64_t seq = 0;       // monotone per exporter; Analyzer dedup key
  /// Flight-recorder correlation id when this report was sampled (0 = not).
  std::uint64_t trace_id = 0;
  TimeNs period_start = 0;
  TimeNs period_end = 0;
  std::vector<std::pair<std::uint32_t, LinkSketch>> links;  // sorted by id

  [[nodiscard]] std::size_t wire_bytes() const;
};

/// Host-side analogue of LinkSketch: the mergeable summary of the healthy
/// probe records an Agent folded out of an UploadBatch instead of shipping
/// raw (AnalyzerConfig::sketch_mode == kOn). Carries exactly what the
/// Analyzer consumes from healthy OK records: exact per-(prober,target)
/// ToR-mesh OK counts for the §4.3.2 timeout-ratio test, per-target-RNIC
/// responder-delay sketches for the Fig-6 CPU-noise filters and the
/// processing-delay bottleneck scan, and a cluster RTT sketch for SLA
/// percentiles. Ordered maps keep iteration deterministic.
struct HostSummary {
  std::uint64_t folded_records = 0;
  /// OK ToR-mesh probes by (prober rnic id, target rnic id) — exact counts,
  /// so Algorithm-1 timeout ratios are identical to raw-record mode.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> tormesh_ok;
  /// Responder delay (④-③) of folded OK records, by target rnic id.
  std::map<std::uint32_t, QuantileSketch> ok_delay_by_target;
  /// Network RTT of folded OK cluster-monitoring records.
  QuantileSketch rtt;

  void merge(const HostSummary& other);
  [[nodiscard]] bool empty() const { return folded_records == 0; }
  [[nodiscard]] std::size_t serialized_bytes() const;
};

/// Per-link sketch state for one fabric, updated from the forwarding hot
/// path (Fabric::send) and drained by the SketchExporter each period. No
/// RNG and no feedback into forwarding: attaching a bank never perturbs the
/// fabric's deterministic behavior.
class LinkSketchBank {
 public:
  explicit LinkSketchBank(std::size_t num_links) : links_(num_links) {}

  void on_forward(std::uint32_t link, Bytes bytes, TimeNs hop_delay_ns,
                  Bytes queue_bytes, double ecn_prob);
  void on_drop(std::uint32_t link, std::uint8_t reason);

  /// Non-empty link sketches in ascending link order; clears the bank.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, LinkSketch>> flush();

  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

 private:
  std::vector<LinkSketch> links_;
  std::uint64_t updates_ = 0;
};

/// Analyzer-side accumulator: deduplicates SketchReports by (exporter, seq)
/// — the same sliding window the ingest path uses for UploadBatch — and
/// merges them per link until the Analyzer drains a period.
class SketchStore {
 public:
  /// Per exporter, report seqs within this many of the highest seen are
  /// remembered and repeats dropped (dedup_accept).
  static constexpr std::uint64_t kDedupWindow = 1024;

  /// Merge a report; false (and counted duplicate) on a repeat delivery of
  /// a retried report. Records kSketchMerge on sampled reports' timelines.
  bool ingest(SketchReport&& rep);

  /// Merged per-link sketches accumulated since the last drain, ascending
  /// link order; clears the store's period state (dedup state survives).
  [[nodiscard]] std::map<std::uint32_t, LinkSketch> drain_period();

  [[nodiscard]] std::uint64_t reports_merged() const { return merged_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }

 private:
  std::unordered_map<std::uint64_t, DedupState> dedup_;  // by exporter tag
  std::map<std::uint32_t, LinkSketch> links_;
  std::uint64_t merged_ = 0;
  std::uint64_t duplicates_ = 0;
  telemetry::Counter m_merged_ = telemetry::registry().counter(
      "rpm_sketch_reports_total", "Sketch reports by processing result",
      {{"result", "merged"}});
  telemetry::Counter m_duplicate_ = telemetry::registry().counter(
      "rpm_sketch_reports_total", "Sketch reports by processing result",
      {{"result", "duplicate"}});
};

}  // namespace rpm::sketch
