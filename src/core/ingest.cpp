#include "core/ingest.h"

#include <algorithm>
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
}

void IngestSink::submit(UploadBatch&& batch) {
  // Belt-and-braces: during an outage the upload channels are peer-down
  // and nothing should arrive, but a delivery that races the cutover must
  // not land in a buffer no period will ever drain correctly.
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
  ingest(std::move(batch.records));
}

void IngestSink::submit_trusted(HostId host,
                                std::vector<ProbeRecord>&& records) {
  prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
  uploads_.inc();
  records_.inc(records.size());
  if (hooks_.host_alive) hooks_.host_alive(host);
  ingest(std::move(records));
}

std::vector<ProbeRecord> IngestSink::drain_period() {
  // Buffer reuse: the period's vector leaves whole, and the next one is
  // pre-sized to what this period held, so steady state accumulates without
  // re-growing from zero.
  std::vector<ProbeRecord> drained = std::exchange(pending_, {});
  pending_.reserve(drained.size());
  return drained;
}

sketch::HostSummary IngestSink::drain_summary() {
  return std::exchange(summary_, sketch::HostSummary{});
}

void IngestSink::ingest(std::vector<ProbeRecord>&& records) {
  if (hooks_.tap != nullptr && *hooks_.tap) {
    for (const ProbeRecord& r : records) (*hooks_.tap)(r);
  }
  if (obs::recorder().enabled()) {
    for (const ProbeRecord& r : records) {
      if (r.flight_sampled) {
        obs::recorder().record(r.id, obs::ProbeEventKind::kAnalyzerIngest);
      }
    }
  }
  // A range insert past capacity grows geometrically, so appends stay
  // amortized O(1) per record.
  pending_.insert(pending_.end(), std::make_move_iterator(records.begin()),
                  std::make_move_iterator(records.end()));
}

}  // namespace rpm::core
