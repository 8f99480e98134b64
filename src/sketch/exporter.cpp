#include "sketch/exporter.h"

#include <any>
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
  // The channel retries a report until it is acked, evicted or cancelled;
  // either way its flight-recorder binding ends there.
  channel_.set_on_expire([](std::uint64_t seq, std::any&) {
    obs::recorder().unbind_batch(kExporterId, seq);
  });
  channel_.set_on_acked([](std::uint64_t seq) {
    obs::recorder().unbind_batch(kExporterId, seq);
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
  flush_task_.cancel();
  channel_.cancel_unacked();
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
  const std::size_t wire = rep.wire_bytes();
  m_reports_.inc();
  m_bytes_.inc(wire);
  const std::uint64_t trace = rep.trace_id;
  const std::uint64_t chan_seq =
      channel_.send(std::any(std::move(rep)), static_cast<Bytes>(wire));
  if (trace != 0) fr.bind_batch(kExporterId, chan_seq, {trace});
}

}  // namespace rpm::sketch
