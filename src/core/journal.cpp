#include "core/journal.h"

#include <array>
#include <span>
#include <stdexcept>

#include "common/codec.h"
#include "telemetry/metrics.h"

namespace rpm::core {

namespace {

// Archived DiagnosisLogs retained per role (drop-oldest beyond).
constexpr std::size_t kArchiveLimit = 4096;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), software table. Guards the
/// checkpoint encoding against bit rot, not just truncation: a real
/// deployment fsyncs these bytes to disk and reads them back after a crash.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

using codec::get_u32;
using codec::get_u64;
using codec::put_u32;
using codec::put_u64;

/// A length prefix, checked against the bytes left: `n` entries of at least
/// `min_bytes` each must fit, so a corrupt count fails as a decode error
/// instead of reaching reserve().
std::uint64_t get_count(std::span<const std::uint8_t> in, std::size_t& off,
                        std::size_t min_bytes) {
  const std::uint64_t n = get_u64(in, off);
  if (n > (in.size() - off) / min_bytes) {
    throw std::runtime_error("AnalyzerCheckpoint: count exceeds input");
  }
  return n;
}

void put_time(std::vector<std::uint8_t>& out, TimeNs t) {
  put_u64(out, static_cast<std::uint64_t>(t));
}

TimeNs get_time(std::span<const std::uint8_t> in, std::size_t& off) {
  return static_cast<TimeNs>(get_u64(in, off));
}

void put_ingest(std::vector<std::uint8_t>& out, const IngestCheckpoint& cp) {
  put_u64(out, cp.hosts.size());
  for (const auto& w : cp.hosts) {
    put_u32(out, w.host);
    put_u64(out, w.max_seq);
    put_u64(out, w.seen.size());
    for (std::uint64_t s : w.seen) put_u64(out, s);
  }
}

IngestCheckpoint get_ingest(std::span<const std::uint8_t> in,
                            std::size_t& off) {
  IngestCheckpoint cp;
  const std::uint64_t n = get_count(in, off, 4 + 8 + 8);
  cp.hosts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    IngestCheckpoint::HostWindow w;
    w.host = get_u32(in, off);
    w.max_seq = get_u64(in, off);
    const std::uint64_t ns = get_count(in, off, 8);
    w.seen.reserve(ns);
    for (std::uint64_t j = 0; j < ns; ++j) w.seen.push_back(get_u64(in, off));
    cp.hosts.push_back(std::move(w));
  }
  return cp;
}

void put_id_times(std::vector<std::uint8_t>& out,
                  const std::vector<std::pair<std::uint32_t, TimeNs>>& v) {
  put_u64(out, v.size());
  for (const auto& [id, t] : v) {
    put_u32(out, id);
    put_time(out, t);
  }
}

std::vector<std::pair<std::uint32_t, TimeNs>> get_id_times(
    std::span<const std::uint8_t> in, std::size_t& off) {
  std::vector<std::pair<std::uint32_t, TimeNs>> v;
  const std::uint64_t n = get_count(in, off, 4 + 8);
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t id = get_u32(in, off);
    v.emplace_back(id, get_time(in, off));
  }
  return v;
}

}  // namespace

void encode_checkpoint(const AnalyzerCheckpoint& cp,
                       std::vector<std::uint8_t>& out) {
  const std::size_t base = out.size();
  put_time(out, cp.last_period_end);
  put_u64(out, cp.next_problem_id);
  put_u64(out, cp.next_evidence_id);
  put_id_times(out, cp.last_upload);
  put_id_times(out, cp.rnic_blamed_until);
  put_id_times(out, cp.host_noise_until);
  put_ingest(out, cp.ingest);
  put_u64(out, cp.digest_seq);
  put_ingest(out, cp.digest_dedup);
  put_u32(out, crc32(out.data() + base, out.size() - base));
}

AnalyzerCheckpoint decode_checkpoint(const std::vector<std::uint8_t>& in) {
  if (in.size() < 4) {
    throw std::runtime_error("AnalyzerCheckpoint: truncated input");
  }
  const std::span<const std::uint8_t> body(in.data(), in.size() - 4);
  std::size_t tail = body.size();
  if (get_u32(in, tail) != crc32(body.data(), body.size())) {
    throw std::runtime_error("AnalyzerCheckpoint: checksum mismatch");
  }
  AnalyzerCheckpoint cp;
  std::size_t off = 0;
  cp.last_period_end = get_time(body, off);
  cp.next_problem_id = get_u64(body, off);
  cp.next_evidence_id = get_u64(body, off);
  cp.last_upload = get_id_times(body, off);
  cp.rnic_blamed_until = get_id_times(body, off);
  cp.host_noise_until = get_id_times(body, off);
  cp.ingest = get_ingest(body, off);
  cp.digest_seq = get_u64(body, off);
  cp.digest_dedup = get_ingest(body, off);
  if (off != body.size()) {
    throw std::runtime_error("AnalyzerCheckpoint: trailing bytes");
  }
  return cp;
}

void StateJournal::save_checkpoint(const std::string& role,
                                   const AnalyzerCheckpoint& cp) {
  std::vector<std::uint8_t>& slot = checkpoints_[role];
  slot.clear();
  encode_checkpoint(cp, slot);
}

std::optional<AnalyzerCheckpoint> StateJournal::load_checkpoint(
    const std::string& role) const {
  auto it = checkpoints_.find(role);
  if (it == checkpoints_.end()) return std::nullopt;
  try {
    return decode_checkpoint(it->second);
  } catch (const std::runtime_error&) {
    // A corrupt checkpoint must not take the Analyzer down with it: the
    // restart path treats nullopt as a clean start (losing dedup windows is
    // recoverable; crashing the restart loop is not).
    ++corrupt_total_;
    telemetry::registry()
        .counter("rpm_journal_corrupt_total",
                 "Checkpoints rejected at decode (CRC or structure)",
                 {{"role", role}})
        .inc();
    return std::nullopt;
  }
}

bool StateJournal::corrupt_checkpoint(const std::string& role,
                                      std::size_t bit) {
  auto it = checkpoints_.find(role);
  if (it == checkpoints_.end() || it->second.empty()) return false;
  std::vector<std::uint8_t>& bytes = it->second;
  bit %= bytes.size() * 8;
  bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return true;
}

std::size_t StateJournal::checkpoint_bytes(const std::string& role) const {
  auto it = checkpoints_.find(role);
  return it == checkpoints_.end() ? 0 : it->second.size();
}

void StateJournal::archive(const std::string& role, obs::DiagnosisLog&& log) {
  std::deque<obs::DiagnosisLog>& q = archives_[role];
  q.push_back(std::move(log));
  while (q.size() > kArchiveLimit) q.pop_front();
}

std::size_t StateJournal::archived(const std::string& role) const {
  auto it = archives_.find(role);
  return it == archives_.end() ? 0 : it->second.size();
}

const obs::EvidenceChain* StateJournal::find_problem(
    const std::string& role, std::uint64_t problem_id) const {
  auto it = archives_.find(role);
  if (it == archives_.end()) return nullptr;
  for (auto log = it->second.rbegin(); log != it->second.rend(); ++log) {
    if (const obs::EvidenceChain* c = log->find_problem(problem_id)) return c;
  }
  return nullptr;
}

const obs::EvidenceChain* StateJournal::find_evidence(
    const std::string& role, std::uint64_t evidence_id) const {
  auto it = archives_.find(role);
  if (it == archives_.end()) return nullptr;
  for (auto log = it->second.rbegin(); log != it->second.rend(); ++log) {
    if (const obs::EvidenceChain* c = log->find(evidence_id)) return c;
  }
  return nullptr;
}

}  // namespace rpm::core
