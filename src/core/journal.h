// core::StateJournal — the federation's persistence layer (ROADMAP "Persist
// Analyzer (host, seq) dedup state and period boundaries").
//
// Two jobs:
//
//  1. Checkpoints. After every period close an Analyzer (flat, pod, or
//     global) writes an AnalyzerCheckpoint: its (host, seq) ingest dedup
//     windows, period boundary, monotone problem/evidence id counters,
//     host-liveness clocks, RNIC blame and host noise windows, and a pod's
//     digest seq — everything a restarted process needs so re-delivered
//     history (upload and digest retransmissions) is deduplicated instead
//     of re-counted, and so new evidence ids never collide with archived
//     ones. Checkpoints are stored as the canonical little-endian byte
//     encoding (encode/decode round-trips in the production path, standing
//     in for the disk file a real deployment would fsync).
//
//  2. DiagnosisLog archive (ROADMAP "Evidence retention policy"). Logs that
//     age past AnalyzerConfig::history_limit spill here instead of being
//     destroyed; Analyzer::explain() falls back to the archive, so a
//     post-mortem can still pull the evidence chain of a problem that is
//     hours out of the live window.
//
// Entries are keyed by a role string ("analyzer", "pod3", "global") so one
// journal serves a whole federated deployment. Deterministic: canonical
// sorted encodings, no wall clock, no RNG.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/ingest.h"
#include "obs/diagnosis.h"

namespace rpm::core {

/// Everything one Analyzer role persists at a period close. The generic
/// fields cover the flat/pod/global pipeline state; digest_seq is a pod
/// Analyzer's last sent digest sequence number and digest_dedup the
/// GlobalAnalyzer's per-pod (pod, seq) windows — unused fields stay empty.
/// The (id, time) lists hold an Analyzer's id-table entries, ascending by id.
struct AnalyzerCheckpoint {
  TimeNs last_period_end = 0;
  std::uint64_t next_problem_id = 1;
  std::uint64_t next_evidence_id = 1;
  std::vector<std::pair<std::uint32_t, TimeNs>> last_upload;  // by host id
  std::vector<std::pair<std::uint32_t, TimeNs>> rnic_blamed_until;  // by RNIC
  std::vector<std::pair<std::uint32_t, TimeNs>> host_noise_until;   // by host
  IngestCheckpoint ingest;
  std::uint64_t digest_seq = 0;
  IngestCheckpoint digest_dedup;  // "host" field holds the pod id
};

/// Canonical byte codec (little-endian, length-prefixed vectors, CRC32
/// trailer). Same state => same bytes; decode throws std::runtime_error on
/// truncation or checksum mismatch (bit flips, not just short reads).
void encode_checkpoint(const AnalyzerCheckpoint& cp,
                       std::vector<std::uint8_t>& out);
AnalyzerCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& in);

class StateJournal {
 public:
  // ---- checkpoints ----

  /// Persist `cp` for `role`, replacing any previous checkpoint. The state
  /// is stored encoded; load_checkpoint() decodes it back, so every save /
  /// load pair exercises the wire codec.
  void save_checkpoint(const std::string& role, const AnalyzerCheckpoint& cp);
  /// Decode the stored checkpoint. A checkpoint that fails to decode (CRC
  /// mismatch or structural damage) is reported as nullopt — the restart
  /// path's clean-start branch — and counted in corrupt_total() plus the
  /// `rpm_journal_corrupt_total` metric; it is never re-thrown.
  [[nodiscard]] std::optional<AnalyzerCheckpoint> load_checkpoint(
      const std::string& role) const;
  /// Size of the stored encoding (0 when absent) — bench/diagnostics.
  [[nodiscard]] std::size_t checkpoint_bytes(const std::string& role) const;
  /// Chaos/test hook: flip one bit (modulo the encoding size) of the stored
  /// checkpoint, simulating at-rest corruption. False when `role` is absent.
  bool corrupt_checkpoint(const std::string& role, std::size_t bit);
  /// Checkpoints rejected at decode since construction.
  [[nodiscard]] std::uint64_t corrupt_total() const { return corrupt_total_; }

  // ---- DiagnosisLog archive ----

  void archive(const std::string& role, obs::DiagnosisLog&& log);
  [[nodiscard]] std::size_t archived(const std::string& role) const;
  /// Newest-first lookup across the role's archived logs.
  [[nodiscard]] const obs::EvidenceChain* find_problem(
      const std::string& role, std::uint64_t problem_id) const;
  [[nodiscard]] const obs::EvidenceChain* find_evidence(
      const std::string& role, std::uint64_t evidence_id) const;

 private:
  mutable std::uint64_t corrupt_total_ = 0;
  std::unordered_map<std::string, std::vector<std::uint8_t>> checkpoints_;
  std::unordered_map<std::string, std::deque<obs::DiagnosisLog>> archives_;
};

}  // namespace rpm::core
