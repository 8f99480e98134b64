// The Analyzer's ingestion endpoint: the IngestSink.
//
// Every record an Agent uploads passes through exactly one IngestSink. The
// sink owns the §4.3 pre-analysis mechanics — (host, seq) duplicate
// suppression for the at-least-once transport, and the id check that keeps
// every id the pipeline indexes inside the topology — and hands each
// accepted batch to its owner's fold (IngestHooks::fold):
//
//   submit(batch)         transport deliveries (deduplicated by (host, seq));
//   submit_trusted(...)   local producers — tests, benches, co-located
//                         collectors — no seq, no duplicate suppression.
//
// The sink keeps no period state: the Analyzer folds each batch into its
// period tables as it arrives, and a sink with no fold keeps nothing.
// Everything runs on the caller's (sim) thread at submit() time. Batches
// reach the fold in submission order, but nothing depends on that order:
// the Analyzer's report is a function of the period's record multiset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/dedup.h"
#include "core/types.h"
#include "sketch/sketch.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::core {

/// Canonical snapshot of per-sender seq dedup windows — what the
/// StateJournal persists so a restarted receiver keeps rejecting
/// re-delivered history (upload channels retransmit old seqs after a
/// reconnect). Senders ascending, seen seqs ascending: same state => same
/// bytes when encoded.
struct IngestCheckpoint {
  struct HostWindow {
    std::uint32_t host = 0;
    std::uint64_t max_seq = 0;
    std::vector<std::uint64_t> seen;  // ascending
  };
  std::vector<HostWindow> hosts;  // ascending by host

  [[nodiscard]] bool empty() const { return hosts.empty(); }
};

/// Dedup windows keyed by sender id (host for uploads, pod for digests).
using DedupWindows = std::unordered_map<std::uint32_t, DedupState>;

/// The canonical snapshot of `windows`, and its inverse.
IngestCheckpoint checkpoint_windows(const DedupWindows& windows);
DedupWindows restore_windows(const IngestCheckpoint& cp);

/// Callbacks the sink fires back into its owner, on the submitting thread.
struct IngestHooks {
  /// Every submit — duplicate included — proves the uploading host alive
  /// (host-down detection keys on received uploads).
  std::function<void(HostId)> host_alive;
  /// Optional per-record observer; the pointee may be empty (checked per
  /// batch) and may be re-bound between periods by the owner.
  const std::function<void(const ProbeRecord&)>* tap = nullptr;
  /// The owner's period fold, once per accepted batch, after the id check,
  /// the dedup window and the tap: the batch's records, and the summary its
  /// Agent folded (null when it carries none, and on the trusted path).
  std::function<void(const std::vector<ProbeRecord>&,
                     const sketch::HostSummary*)>
      fold;
};

/// The ingestion endpoint. One per Analyzer.
class IngestSink {
 public:
  /// Uploads are checked against `topo`: a batch from a host outside it or
  /// whose summary folds an RNIC outside it, and a record whose prober,
  /// prober host, target or any path link lies outside it, are dropped and
  /// counted.
  explicit IngestSink(const topo::Topology& topo, IngestHooks hooks = {});

  /// Transport delivery path: id check, dedup by (host, seq), then fold.
  /// Dropped silently while paused (Analyzer outage).
  void submit(UploadBatch&& batch);

  /// Trusted local path: no seq, no duplicate suppression, ignores pause
  /// (matching the historical Analyzer::upload contract). Ids are checked
  /// as in submit().
  void submit_trusted(HostId host, std::vector<ProbeRecord>&& records);

  /// Analyzer outage: while paused, submit() drops on the floor.
  void set_paused(bool paused) { paused_ = paused; }

  /// Canonical snapshot of the per-host dedup windows for the StateJournal.
  [[nodiscard]] IngestCheckpoint checkpoint() const {
    return checkpoint_windows(dedup_);
  }

  /// Restart path: replace the dedup windows from a journaled snapshot so
  /// re-delivered batches (transport retries of batches delivered before
  /// the crash) are suppressed instead of re-counted.
  void restore(const IngestCheckpoint& cp) { dedup_ = restore_windows(cp); }

 private:
  /// False (and counted) when `host`, or an RNIC `summary` folds, lies
  /// outside the topology.
  bool accept_batch(HostId host, const sketch::HostSummary* summary);
  /// Drops the records outside the topology, then taps and folds the batch.
  void ingest(std::vector<ProbeRecord>& records,
              const sketch::HostSummary* summary);

  const topo::Topology* topo_;
  IngestHooks hooks_;
  DedupWindows dedup_;  // by host id
  bool paused_ = false;

  telemetry::Counter uploads_;
  telemetry::Counter records_;
  telemetry::Counter batches_accepted_;
  telemetry::Counter batches_duplicate_;
  // Registered on the first rejection: a run with none exports no series.
  telemetry::Counter batches_rejected_;
  telemetry::Counter records_rejected_;
};

}  // namespace rpm::core
