#include "core/ingest.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"

namespace rpm::core {

namespace {

constexpr const char* kBatchesHelp = "Upload batches by ingest outcome";

}  // namespace

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

IngestSink::IngestSink(const topo::Topology& topo, IngestHooks hooks)
    : topo_(&topo), hooks_(std::move(hooks)) {
  auto& reg = telemetry::registry();
  uploads_ = reg.counter("rpm_analyzer_uploads_total",
                         "Agent record batches received");
  records_ = reg.counter("rpm_analyzer_records_total",
                         "Probe records received from Agents");
  batches_accepted_ = reg.counter("rpm_analyzer_batches_total", kBatchesHelp,
                                  {{"result", "accepted"}});
  batches_duplicate_ = reg.counter("rpm_analyzer_batches_total", kBatchesHelp,
                                   {{"result", "duplicate"}});
}

void IngestSink::submit(UploadBatch&& batch) {
  // Belt-and-braces: during an outage the upload channels are peer-down
  // and nothing should arrive, but a delivery that races the cutover must
  // not land in a buffer no period will ever drain correctly.
  if (paused_) return;
  prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
  if (!accept_batch(batch.host, &batch.summary)) return;
  if (hooks_.host_alive) hooks_.host_alive(batch.host);
  if (!dedup_accept(dedup_[batch.host.value], batch.seq)) {
    batches_duplicate_.inc();
    return;
  }
  batches_accepted_.inc();
  uploads_.inc();
  ingest(batch.records, batch.summary.empty() ? nullptr : &batch.summary);
}

void IngestSink::submit_trusted(HostId host,
                                std::vector<ProbeRecord>&& records) {
  prof::StageScope prof_scope(prof::Stage::kIngestSubmit);
  if (!accept_batch(host, nullptr)) return;
  uploads_.inc();
  if (hooks_.host_alive) hooks_.host_alive(host);
  ingest(records, nullptr);
}

bool IngestSink::accept_batch(HostId host,
                              const sketch::HostSummary* summary) {
  bool inside = host.value < topo_->num_hosts();
  if (summary != nullptr) {
    const std::size_t rnics = topo_->num_rnics();
    for (const auto& [pair, count] : summary->tormesh_ok) {
      inside = inside && pair.first < rnics && pair.second < rnics;
    }
    for (const auto& [rnic, delays] : summary->ok_delay_by_target) {
      inside = inside && rnic < rnics;
    }
  }
  if (inside) return true;
  if (!batches_rejected_.valid()) {
    batches_rejected_ = telemetry::registry().counter(
        "rpm_analyzer_batches_total", kBatchesHelp,
        {{"result", "outside-topology"}});
  }
  batches_rejected_.inc();
  return false;
}

void IngestSink::ingest(std::vector<ProbeRecord>& records,
                        const sketch::HostSummary* summary) {
  // Every id the period pipeline indexes the topology with, checked once.
  const auto outside = [this](const ProbeRecord& r) {
    const auto link_outside = [this](LinkId l) {
      return l.value >= topo_->num_links();
    };
    return r.prober.value >= topo_->num_rnics() ||
           r.target.value >= topo_->num_rnics() ||
           r.prober_host.value >= topo_->num_hosts() ||
           std::any_of(r.fwd_path.links.begin(), r.fwd_path.links.end(),
                       link_outside) ||
           std::any_of(r.rev_path.links.begin(), r.rev_path.links.end(),
                       link_outside);
  };
  if (const std::size_t dropped = std::erase_if(records, outside)) {
    if (!records_rejected_.valid()) {
      records_rejected_ = telemetry::registry().counter(
          "rpm_analyzer_records_rejected_total",
          "Probe records dropped for an id outside the topology");
    }
    records_rejected_.inc(dropped);
  }
  records_.inc(records.size());
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
  if (hooks_.fold) hooks_.fold(records, summary);
}

}  // namespace rpm::core
