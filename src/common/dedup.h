// The sequence window of an at-least-once message stream, and the
// sliding-window dedup its receivers run.
//
// Every sequenced stream the Analyzer side consumes can deliver a message
// more than once: the transport retries a message until it is acked, so a
// lost ack, or a backlog retransmitted after an outage, resends an old seq
// (from before a receiver's crash, too). The receiver keeps one DedupState
// per sender — Agent UploadBatches by (host, seq), PodDigests by (pod, seq)
// — and asks dedup_accept() whether a seq is a first delivery.
#pragma once

#include <cstdint>
#include <unordered_set>

namespace rpm {

/// One window for both ends of a stream. A transport sender keeps at most
/// this many seqs unacked and drops the oldest beyond it (transport.h), and
/// a receiver remembers the seqs within this many of the highest it has
/// seen: a seq further behind was acked or abandoned, so a copy of it can
/// only be an old retransmit.
inline constexpr std::uint64_t kSeqWindow = 64;

/// Per-sender sliding-window seq memory.
struct DedupState {
  std::uint64_t max_seq = 0;
  std::unordered_set<std::uint64_t> seen;
};

/// True when `seq` is a first delivery inside the kSeqWindow seqs below
/// the highest seen; records the seq and slides the window forward. A seq
/// that fell behind the window counts as a duplicate: it can only be an
/// ancient retransmit, and dropping it never double-counts.
bool dedup_accept(DedupState& st, std::uint64_t seq);

}  // namespace rpm
