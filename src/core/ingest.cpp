#include "core/ingest.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"

namespace rpm::core {

IngestCheckpoint checkpoint_windows(const DedupWindows& windows) {
  IngestCheckpoint cp;
  cp.hosts.reserve(windows.size());
  for (const auto& [host, st] : windows) {
    IngestCheckpoint::HostWindow w;
    w.host = host;
    w.max_seq = st.max_seq;
    w.seen.assign(st.seen.begin(), st.seen.end());
    std::sort(w.seen.begin(), w.seen.end());
    cp.hosts.push_back(std::move(w));
  }
  std::sort(cp.hosts.begin(), cp.hosts.end(),
            [](const IngestCheckpoint::HostWindow& a,
               const IngestCheckpoint::HostWindow& b) {
              return a.host < b.host;
            });
  return cp;
}

DedupWindows restore_windows(const IngestCheckpoint& cp) {
  DedupWindows windows;
  for (const IngestCheckpoint::HostWindow& w : cp.hosts) {
    DedupState& st = windows[w.host];
    st.max_seq = w.max_seq;
    st.seen.insert(w.seen.begin(), w.seen.end());
  }
  return windows;
}

IngestSink::IngestSink(IngestHooks hooks) : hooks_(std::move(hooks)) {
  auto& reg = telemetry::registry();
  uploads_ = reg.counter("rpm_analyzer_uploads_total",
                         "Agent record batches received");
  records_ = reg.counter("rpm_analyzer_records_total",
                         "Probe records received from Agents");
  batches_accepted_ = reg.counter("rpm_analyzer_batches_total",
                                  "Transport upload batches by dedup outcome",
                                  {{"result", "accepted"}});
  batches_duplicate_ = reg.counter("rpm_analyzer_batches_total",
                                   "Transport upload batches by dedup outcome",
                                   {{"result", "duplicate"}});
  for (std::size_t b = 0; b < kShards; ++b) {
    bucket_records_[b] = reg.histogram(
        "rpm_analyzer_ingest_bucket_records",
        "Records merged from one ingest shard at period close",
        {{"bucket", std::to_string(b)}});
  }
}

void IngestSink::submit(UploadBatch&& batch) {
  // Belt-and-braces: during an outage the upload channels are peer-down
  // and nothing should arrive, but a delivery that races the cutover must
  // not land in a shard no period will ever drain correctly.
  if (paused_) return;
  prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
  if (hooks_.host_alive) hooks_.host_alive(batch.host);
  if (!dedup_accept(dedup_[batch.host.value], batch.seq, kDedupWindow)) {
    batches_duplicate_.inc();
    return;
  }
  batches_accepted_.inc();
  uploads_.inc();
  records_.inc(batch.records.size());
  if (!batch.summary.empty()) summary_.merge(batch.summary);
  ingest(batch.host, std::move(batch.records));
}

void IngestSink::submit_trusted(HostId host,
                                std::vector<ProbeRecord>&& records) {
  prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
  uploads_.inc();
  records_.inc(records.size());
  if (hooks_.host_alive) hooks_.host_alive(host);
  ingest(host, std::move(records));
}

std::vector<ProbeRecord> IngestSink::drain_period() {
  std::size_t total = 0;
  for (const auto& b : buckets_) total += b.size();
  std::vector<ProbeRecord> merged;
  merged.reserve(total);
  for (std::size_t b = 0; b < kShards; ++b) {
    std::vector<ProbeRecord>& bucket = buckets_[b];
    bucket_records_[b].observe(static_cast<double>(bucket.size()));
    merged.insert(merged.end(), std::make_move_iterator(bucket.begin()),
                  std::make_move_iterator(bucket.end()));
    bucket.clear();  // keeps capacity for the next period
  }
  return merged;
}

sketch::HostSummary IngestSink::drain_summary() {
  return std::exchange(summary_, sketch::HostSummary{});
}

void IngestSink::ingest(HostId host, std::vector<ProbeRecord>&& records) {
  if (hooks_.tap != nullptr && *hooks_.tap) {
    for (const ProbeRecord& r : records) (*hooks_.tap)(r);
  }
  const std::size_t shard_idx = host.value % kShards;
  if (obs::recorder().enabled()) {
    for (const ProbeRecord& r : records) {
      if (r.flight_sampled) {
        obs::recorder().record(r.id, obs::ProbeEventKind::kAnalyzerIngest,
                               shard_idx);
      }
    }
  }
  std::vector<ProbeRecord>& bucket = buckets_[shard_idx];
  const std::size_t needed = bucket.size() + records.size();
  if (bucket.capacity() < needed) {
    // Grow geometrically: an exact-size reserve per batch would force a
    // reallocation on every append, quadratic over a period.
    bucket.reserve(std::max(needed, bucket.capacity() * 2));
  }
  bucket.insert(bucket.end(), std::make_move_iterator(records.begin()),
                std::make_move_iterator(records.end()));
}

}  // namespace rpm::core
