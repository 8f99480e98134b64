#include "obs/flight_recorder.h"

#include <algorithm>

#include "obs/chrome_trace.h"

namespace rpm::obs {

namespace {

constexpr std::uint64_t kSeed = 0x0b5f11447ULL;  // sampling Rng (determinism)
// Live (owner, channel seq) -> probe ids bindings; the oldest is forgotten.
constexpr std::size_t kMaxBatchBindings = 1024;

}  // namespace

const char* probe_event_name(ProbeEventKind k) {
  switch (k) {
    case ProbeEventKind::kEnqueued: return "agent-enqueue";
    case ProbeEventKind::kVerbsPost: return "verbs-post";
    case ProbeEventKind::kSendCqe: return "send-cqe(2)";
    case ProbeEventKind::kHop: return "fabric-hop";
    case ProbeEventKind::kFabricDrop: return "fabric-drop";
    case ProbeEventKind::kResponderRecv: return "responder-recv-cqe(3)";
    case ProbeEventKind::kResponderWake: return "responder-wakeup";
    case ProbeEventKind::kAckPosted: return "ack1-posted";
    case ProbeEventKind::kAckSendCqe: return "ack1-send-cqe(4)";
    case ProbeEventKind::kProberAckCqe: return "prober-ack-cqe(5)";
    case ProbeEventKind::kProberApp: return "prober-app(6)";
    case ProbeEventKind::kAck2Recv: return "ack2-recv";
    case ProbeEventKind::kCompleted: return "completed";
    case ProbeEventKind::kTimedOut: return "timed-out";
    case ProbeEventKind::kOutboxFlush: return "outbox-flush";
    case ProbeEventKind::kTransportAttempt: return "transport-attempt";
    case ProbeEventKind::kUploadDropped: return "upload-dropped";
    case ProbeEventKind::kAnalyzerIngest: return "analyzer-ingest";
    case ProbeEventKind::kVerdict: return "analyzer-verdict";
    case ProbeEventKind::kLeaseExpired: return "lease-expired";
    case ProbeEventKind::kReregistered: return "reregistered";
    case ProbeEventKind::kSketchFlush: return "sketch-flush";
    case ProbeEventKind::kSketchMerge: return "sketch-merge";
    case ProbeEventKind::kDigestFlush: return "digest-flush";
    case ProbeEventKind::kDigestMerge: return "digest-merge";
  }
  return "?";
}

void FlightRecorder::enable(FlightRecorderConfig cfg, ClockFn clock) {
  cfg_ = cfg;
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  clock_ = std::move(clock);
  rng_ = Rng(kSeed);
  fallback_tick_ = 0;
  ring_.assign(cfg_.capacity, ProbeTimeline{});
  next_slot_ = 0;
  index_.clear();
  bindings_.clear();
  binding_order_.clear();
  markers_.clear();
  seen_ = sampled_ = evicted_ = dropped_ = 0;
  auto& reg = telemetry::registry();
  m_sampled_ = reg.counter("rpm_obs_probes_sampled_total",
                           "Probes whose timeline the flight recorder kept");
  m_events_ = reg.counter("rpm_obs_events_total",
                          "Timeline events recorded across all probes");
  m_evicted_ = reg.counter("rpm_obs_timelines_evicted_total",
                           "Sampled timelines evicted by ring capacity");
  m_dropped_ = reg.counter(
      "rpm_obs_events_dropped_total",
      "Events discarded by the per-probe event cap");
  enabled_ = true;
}

void FlightRecorder::disable() {
  enabled_ = false;
  clock_ = {};
  ring_.clear();
  ring_.shrink_to_fit();
  index_.clear();
  bindings_.clear();
  binding_order_.clear();
  markers_.clear();
  next_slot_ = 0;
}

void FlightRecorder::marker_slow(const char* name, std::uint64_t a,
                                 std::uint64_t b) {
  markers_.push_back({stamp(), name, a, b});
  while (markers_.size() > cfg_.max_markers) markers_.pop_front();
}

TimeNs FlightRecorder::stamp() {
  // Without a clock, fall back to a deterministic tick — never wall time,
  // which would break the byte-identical-histories determinism guarantee.
  return clock_ ? clock_() : ++fallback_tick_;
}

bool FlightRecorder::begin_probe(std::uint64_t probe_id,
                                 const char* kind_name, std::uint64_t t1) {
  if (!enabled_) return false;
  ++seen_;
  if (!rng_.chance(cfg_.sample_rate)) return false;
  ++sampled_;
  m_sampled_.inc();
  const std::size_t slot = next_slot_;
  next_slot_ = (next_slot_ + 1) % ring_.size();
  ProbeTimeline& tl = ring_[slot];
  if (tl.probe_id != 0) {
    index_.erase(tl.probe_id);
    ++evicted_;
    m_evicted_.inc();
  }
  tl.probe_id = probe_id;
  tl.kind_name = kind_name != nullptr ? kind_name : "";
  tl.events.clear();
  index_[probe_id] = slot;
  record_slow(probe_id, ProbeEventKind::kEnqueued, t1, 0);
  return true;
}

void FlightRecorder::record_slow(std::uint64_t probe_id, ProbeEventKind k,
                                 std::uint64_t a, std::uint64_t b) {
  const auto it = index_.find(probe_id);
  if (it == index_.end()) return;  // never sampled, or evicted since
  ProbeTimeline& tl = ring_[it->second];
  if (tl.events.size() >= cfg_.max_events_per_probe) {
    ++dropped_;
    m_dropped_.inc();
    return;
  }
  TimelineEvent e;
  e.t = stamp();
  e.kind = k;
  e.a = a;
  e.b = b;
  tl.events.push_back(e);
  m_events_.inc();
}

void FlightRecorder::bind_batch(std::uint64_t owner_tag,
                                std::uint64_t chan_seq,
                                std::vector<std::uint64_t> probe_ids) {
  if (!enabled_ || probe_ids.empty()) return;
  const auto key = std::make_pair(owner_tag, chan_seq);
  if (!bindings_.contains(key)) {
    binding_order_.push_back(key);
    while (binding_order_.size() > kMaxBatchBindings) {
      bindings_.erase(binding_order_.front());
      binding_order_.pop_front();
    }
  }
  bindings_[key].probe_ids = std::move(probe_ids);
}

void FlightRecorder::batch_event(std::uint64_t owner_tag,
                                 std::uint64_t chan_seq, ProbeEventKind k,
                                 std::uint64_t a) {
  if (!enabled_) return;
  const auto it = bindings_.find(std::make_pair(owner_tag, chan_seq));
  if (it == bindings_.end()) return;
  for (std::uint64_t pid : it->second.probe_ids) record_slow(pid, k, a, 0);
}

void FlightRecorder::unbind_batch(std::uint64_t owner_tag,
                                  std::uint64_t chan_seq) {
  if (!enabled_) return;
  bindings_.erase(std::make_pair(owner_tag, chan_seq));
  // binding_order_ keeps a stale key until it cycles out; erase is idempotent.
}

const ProbeTimeline* FlightRecorder::timeline(std::uint64_t probe_id) const {
  const auto it = index_.find(probe_id);
  return it == index_.end() ? nullptr : &ring_[it->second];
}

std::vector<const ProbeTimeline*> FlightRecorder::timelines() const {
  std::vector<const ProbeTimeline*> out;
  out.reserve(index_.size());
  // Oldest first: walk the ring from next_slot_ (the next eviction victim).
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const ProbeTimeline& tl = ring_[(next_slot_ + i) % ring_.size()];
    if (tl.probe_id != 0 && index_.contains(tl.probe_id)) out.push_back(&tl);
  }
  return out;
}

void FlightRecorder::write_json(json::Writer& w) const {
  w.begin_object()
      .key("config").begin_object()
      .key("sample_rate").number(cfg_.sample_rate)
      .key("capacity").integer(cfg_.capacity)
      .end_object()
      .key("probes_seen").integer(seen_)
      .key("probes_sampled").integer(sampled_)
      .key("evicted").integer(evicted_)
      .key("dropped_events").integer(dropped_);
  const auto event = [&w](TimeNs t, std::string_view name, std::uint64_t a,
                          std::uint64_t b) {
    w.begin_object()
        .key("t").integer(t)
        .key("event").string(name)
        .key("a").integer(a)
        .key("b").integer(b)
        .end_object();
  };
  if (!markers_.empty()) {
    // Omitted when empty so dumps from runs that emit no marker stay
    // unchanged.
    w.key("markers").begin_array();
    for (const Marker& m : markers_) event(m.t, m.name, m.a, m.b);
    w.end_array();
  }
  w.key("timelines").begin_array();
  for (const ProbeTimeline* tl : timelines()) {
    w.begin_object()
        .key("probe_id").integer(tl->probe_id)
        .key("kind").string(tl->kind_name)
        .key("closed").boolean(tl->closed())
        .key("events").begin_array();
    for (const TimelineEvent& e : tl->events) {
      event(e.t, probe_event_name(e.kind), e.a, e.b);
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
}

std::string FlightRecorder::to_json() const {
  return json::to_string([this](json::Writer& w) { write_json(w); });
}

void FlightRecorder::write_chrome_events(json::Writer& w) const {
  // Markers are global instants on pid 1. Probe tracks are pid 2 with
  // tid = ring slot, so every sampled probe gets its own row: the probe's
  // whole life is the outer span, and each layer crossing nests inside it
  // (chrome nests same-tid 'X' events by containment).
  for (const Marker& m : markers_) {
    begin_chrome_event(
        w, {.name = m.name, .cat = "marker", .ph = 'i', .pid = 1, .ts = m.t});
    w.key("args").begin_object()
        .key("a").integer(m.a)
        .key("b").integer(m.b)
        .end_object().end_object();
  }
  for (const ProbeTimeline* tl : timelines()) {
    if (tl->events.empty()) continue;
    const auto it = index_.find(tl->probe_id);
    const std::size_t tid = it == index_.end() ? 0 : it->second;
    const auto span = [&](std::string_view name, TimeNs begin, TimeNs end) {
      begin_chrome_event(w, {.name = name,
                             .cat = "probe",
                             .pid = 2,
                             .tid = tid,
                             .ts = begin,
                             .dur = std::max<TimeNs>(end - begin, 1)});
      w.key("args").begin_object()
          .key("probe_id").integer(tl->probe_id)
          .key("kind").string(tl->kind_name)
          .end_object().end_object();
    };
    span("probe " + std::to_string(tl->probe_id), tl->events.front().t,
         tl->events.back().t);
    for (std::size_t i = 1; i < tl->events.size(); ++i) {
      span(probe_event_name(tl->events[i].kind), tl->events[i - 1].t,
           tl->events[i].t);
    }
  }
}

FlightRecorder& recorder() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

}  // namespace rpm::obs
