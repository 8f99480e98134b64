// Sliding-window sequence dedup for at-least-once message streams.
//
// Every sequenced stream the Analyzer side consumes can deliver a message
// more than once: the transport retries a message until it is acked, so a
// lost ack, or a backlog retransmitted after an outage, resends an old seq
// (from before a receiver's crash, too). The receiver
// keeps one DedupState per sender — Agent UploadBatches by (host, seq),
// PodDigests by (pod, seq), switch SketchReports by (exporter, seq) — and
// asks dedup_accept() whether a seq is a first delivery.
#pragma once

#include <cstdint>
#include <unordered_set>

namespace rpm {

/// Per-sender sliding-window seq memory.
struct DedupState {
  std::uint64_t max_seq = 0;
  std::unordered_set<std::uint64_t> seen;
};

/// True when `seq` is a first delivery inside the window of `window` seqs
/// below the highest seen; records the seq and slides the window forward.
/// A seq that fell behind the window counts as a duplicate: it can only be
/// an ancient retransmit, and dropping it never double-counts.
bool dedup_accept(DedupState& st, std::uint64_t seq, std::uint64_t window);

}  // namespace rpm
