#include "sketch/exporter.h"

#include <any>
#include <memory>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"

namespace rpm::sketch {
namespace {

// Flight-recorder ids for sketch reports live far above probe ids (which
// are small monotone integers) so the two can share one recorder.
constexpr std::uint64_t kSketchTraceBase = 1ull << 62;
// Wire tag of every report, and the flight recorder's batch-owner tag.
constexpr std::uint64_t kExporterId = 1;

}  // namespace

SketchExporter::SketchExporter(sim::Scheduler& sched,
                               transport::Channel& channel,
                               LinkSketchBank& bank)
    : sched_(sched),
      channel_(channel),
      bank_(bank),
      flush_task_(sched, transport::kUploadInterval, [this] { flush_now(); }) {
  channel_.set_on_expire(
      [this](std::uint64_t seq, std::any& p) { on_expired(seq, p); });
  channel_.set_on_acked([this](std::uint64_t seq) {
    obs::recorder().unbind_batch(kExporterId, seq);
    on_acked();
  });
  channel_.set_on_attempt([this](std::uint64_t seq, std::uint32_t attempt) {
    obs::recorder().batch_event(kExporterId, seq,
                                obs::ProbeEventKind::kTransportAttempt,
                                attempt);
  });
}

SketchExporter::~SketchExporter() {
  stop();
  channel_.set_on_expire(nullptr);
  channel_.set_on_acked(nullptr);
  channel_.set_on_attempt(nullptr);
}

void SketchExporter::start() {
  if (running_) return;
  running_ = true;
  period_start_ = sched_.now();
  flush_task_.start(transport::kUploadInterval);
}

void SketchExporter::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;  // deferred resends/drains in flight become no-ops
  flush_task_.cancel();
  channel_.cancel_unacked();
  if (!spill_.empty()) {
    channel_.note_app_drop(spill_.size());
    spill_.clear();
  }
}

void SketchExporter::flush_now() {
  if (!running_) return;
  prof::StageScope prof_scope(prof::Stage::kSketchFlush);
  const TimeNs now = sched_.now();
  auto links = bank_.flush();
  if (links.empty()) {
    period_start_ = now;
    return;
  }
  SketchReport rep;
  rep.exporter = kExporterId;
  rep.seq = next_seq_++;
  rep.period_start = period_start_;
  rep.period_end = now;
  rep.links = std::move(links);
  period_start_ = now;
  obs::FlightRecorder& fr = obs::recorder();
  if (fr.enabled()) {
    const std::uint64_t trace = kSketchTraceBase | rep.seq;
    if (fr.begin_probe(trace, "sketch-report", static_cast<std::uint64_t>(now))) {
      rep.trace_id = trace;
      fr.record(trace, obs::ProbeEventKind::kSketchFlush, rep.seq,
                rep.links.size());
    }
  }
  ++reports_sent_;
  m_reports_.inc();
  m_bytes_.inc(rep.wire_bytes());
  send_report(std::move(rep));
}

void SketchExporter::send_report(SketchReport&& rep) {
  const std::uint64_t trace = rep.trace_id;
  const auto wire = static_cast<Bytes>(rep.wire_bytes());
  const std::uint64_t chan_seq = channel_.send(std::any(std::move(rep)), wire);
  if (trace != 0) {
    obs::recorder().bind_batch(kExporterId, chan_seq, {trace});
  }
}

void SketchExporter::on_expired(std::uint64_t chan_seq, std::any& payload) {
  obs::recorder().unbind_batch(kExporterId, chan_seq);
  auto* rep = std::any_cast<SketchReport>(&payload);
  // Moved-from (delivered, then abandoned by a lost ack) reports have no
  // links — nothing to recover.
  if (rep == nullptr || rep->links.empty()) return;
  // stop() abandoned it: the transport already counted the drop.
  if (!running_) return;
  if (rep->requeues >= transport::kUploadRequeueCap) {
    spill_report(std::move(*rep));
    return;
  }
  ++rep->requeues;
  if (rep->trace_id != 0) {
    obs::recorder().record(rep->trace_id, obs::ProbeEventKind::kRequeued,
                           rep->requeues);
  }
  // Deferred: on_expire may run from inside send() (drop-oldest
  // backpressure); never re-enter the channel synchronously.
  auto carry = std::make_shared<SketchReport>(std::move(*rep));
  sched_.schedule_after(0, [this, e = epoch_, carry] {
    if (e != epoch_ || !running_) {
      channel_.note_app_drop();  // stop() aborted the requeue
      return;
    }
    send_report(std::move(*carry));
  });
}

void SketchExporter::spill_report(SketchReport&& rep) {
  if (rep.trace_id != 0) {
    obs::recorder().record(rep.trace_id, obs::ProbeEventKind::kSpilled,
                           rep.seq);
  }
  // Keep the ring seq-ascending (skip a seq already parked there).
  auto it = spill_.begin();
  while (it != spill_.end() && it->seq < rep.seq) ++it;
  if (it != spill_.end() && it->seq == rep.seq) return;
  spill_.insert(it, std::move(rep));
  while (spill_.size() > transport::kSpillRingCap) {
    SketchReport& oldest = spill_.front();
    if (oldest.trace_id != 0) {
      obs::recorder().record(oldest.trace_id,
                             obs::ProbeEventKind::kUploadDropped, oldest.seq);
    }
    ++spill_drops_;
    channel_.note_app_drop();
    spill_.pop_front();
  }
}

void SketchExporter::on_acked() {
  if (spill_.empty() || drain_pending_) return;
  drain_pending_ = true;
  // Deferred: acks arrive inside channel event handling.
  sched_.schedule_after(0, [this, e = epoch_] {
    drain_pending_ = false;
    if (e != epoch_ || !running_) return;
    drain_spill();
  });
}

void SketchExporter::drain_spill() {
  std::deque<SketchReport> parked;
  parked.swap(spill_);
  for (SketchReport& rep : parked) {
    rep.requeues = transport::kUploadRequeueCap;
    if (rep.trace_id != 0) {
      obs::recorder().record(rep.trace_id, obs::ProbeEventKind::kSpillDrained,
                             rep.seq);
    }
    send_report(std::move(rep));
  }
}

}  // namespace rpm::sketch
