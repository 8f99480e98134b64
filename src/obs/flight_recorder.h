// Probe flight recorder: per-probe causal timelines across every layer.
//
// The Analyzer's verdicts aggregate thousands of probes; when one of them
// misbehaves, operators need the probe's *life story* — when the Agent
// enqueued it, when verbs posted it, the RNIC timestamps ①..⑥ of Figure 4,
// every switch hop the fabric routed it over (and where it died, if it
// died), the responder's wakeup, which UploadBatch carried its record, each
// transport delivery attempt, and when the Analyzer ingested it. The
// flight recorder captures exactly that: a fixed-capacity ring of sampled
// probe timelines, correlated by probe id threaded through `ProbeRecord`,
// the fabric `Datagram` (`trace_id`), and the upload transport.
//
// Design constraints:
//  * Zero cost when disabled: every record call is one branch on a plain
//    bool; no allocation, no hashing, no clock read (bench:
//    BM_FlightRecorderProbePath/0).
//  * Deterministic: the sampling decision uses the recorder's own seeded
//    Rng (never wall clock), so same-seed simulations stay byte-identical.
//  * Bounded: `capacity` timelines (oldest evicted) with a per-probe event
//    cap; batch bindings (transport correlation) are capped the same way.
//
// Process-level events (fault injections, chaos steps, control-plane
// crashes and failovers) go on a separate marker track: a bounded FIFO of
// named markers that never touches sampling.
//
// Rendering, through json::Writer: `write_json()` for dumps,
// `write_chrome_events()` for the marker track (pid 1 instants) and one
// track per sampled probe (pid 2, nested 'X' spans), written through
// obs/chrome_trace.h.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/types.h"
#include "telemetry/metrics.h"

namespace rpm::obs {

/// One layer-crossing in a probe's life. `a`/`b` are kind-specific details
/// (device-clock timestamps, link ids, batch seqs, ...), documented per kind.
enum class ProbeEventKind : std::uint8_t {
  kEnqueued,         // Agent created the probe; a = ① prober host clock
  kVerbsPost,        // ibv_post_send issued on the UD QP
  kSendCqe,          // ② prober RNIC send CQE; a = prober RNIC clock
  kHop,              // fabric hop traversed; a = link id, b = queue delay ns
  kFabricDrop,       // dropped in the fabric; a = DropReason, b = link id
  kResponderRecv,    // ③ responder RNIC recv CQE; a = responder RNIC clock
  kResponderWake,    // responder Agent scheduled; a = process wakeup delay
  kAckPosted,        // responder posted ACK1
  kAckSendCqe,       // ④ ACK1 send CQE; a = responder RNIC clock (ACK2 goes out)
  kProberAckCqe,     // ⑤ prober RNIC recv CQE of ACK1; a = prober RNIC clock
  kProberApp,        // ⑥ prober application sees ACK1; a = prober host clock
  kAck2Recv,         // ACK2 arrived; a = responder delay ④-③
  kCompleted,        // record finalized OK; a = network RTT, b = prober delay
  kTimedOut,         // record finalized as timeout
  kOutboxFlush,      // record left in an UploadBatch; a = batch seq, b = size
  kTransportAttempt, // carrying batch transmitted; a = attempt number
  kUploadDropped,    // carrying batch dropped (window eviction / cancel)
  kAnalyzerIngest,   // record accepted into the Analyzer's ingest buffer
  kVerdict,          // Analyzer attributed a cause; a = AnomalyCause
  kLeaseExpired,     // Agent's Controller lease lapsed while record waited
  kReregistered,     // Agent re-registered after a lost lease
  kDigestFlush,      // PodAnalyzer flushed a PodDigest; a = seq, b = problems
  kDigestMerge,      // GlobalAnalyzer merged a PodDigest; a = pod, b = seq
};

const char* probe_event_name(ProbeEventKind k);

struct TimelineEvent {
  TimeNs t = 0;  // recorder clock (simulated time when a clock is installed)
  ProbeEventKind kind{};
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

struct ProbeTimeline {
  std::uint64_t probe_id = 0;
  const char* kind_name = "";  // static string (probe_kind_name)
  std::vector<TimelineEvent> events;

  [[nodiscard]] bool closed() const {
    for (const TimelineEvent& e : events) {
      if (e.kind == ProbeEventKind::kCompleted ||
          e.kind == ProbeEventKind::kTimedOut) {
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] const TimelineEvent* find(ProbeEventKind k) const {
    for (const TimelineEvent& e : events) {
      if (e.kind == k) return &e;
    }
    return nullptr;
  }
};

struct FlightRecorderConfig {
  double sample_rate = 0.0;            // P(record) per probe, drawn at birth
  std::size_t capacity = 4096;         // ring slots; oldest timeline evicted
  std::size_t max_events_per_probe = 96;
  std::size_t max_markers = 1024;      // process-level marker FIFO cap
};

/// A process-level (not per-probe) event. Markers bypass sampling — they
/// never touch the sampling Rng, so emitting one cannot perturb which probes
/// get recorded. Markers carry simulated time only (the profiler's wall-clock
/// period closes and budget overruns live on its own pid-3 track), so
/// same-seed runs dump identical markers. `a`/`b` are documented per name:
///   <fault_kind_name>             a = fault handle, b = 1 inject / 0 clear
///   <chaos_step_name>             a = the step's campaign-relative time
///   controller-crash, -restart, -promote   a = Controller epoch
///   controller-failover           a = new epoch, b = promoted member
///   agent-*                       a = host id
///   analyzer-*, global-analyzer-* (none)
struct Marker {
  TimeNs t = 0;
  const char* name = "";  // static storage, like ProbeTimeline::kind_name
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class FlightRecorder {
 public:
  using ClockFn = std::function<TimeNs()>;

  /// Turn recording on. Re-enabling resets all state (timelines, sampling
  /// Rng) so back-to-back same-seed runs record identically. Without a
  /// clock, events are stamped with a deterministic internal tick.
  void enable(FlightRecorderConfig cfg, ClockFn clock = {});
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const FlightRecorderConfig& config() const { return cfg_; }

  /// Sampling decision at probe birth; true iff this probe's timeline is
  /// recorded. Call once per probe — the result must be cached by the
  /// caller (ProbeRecord::flight_sampled) so later layers pay one branch.
  /// `t1` rides onto the opening kEnqueued event (① prober host clock).
  bool begin_probe(std::uint64_t probe_id, const char* kind_name,
                   std::uint64_t t1 = 0);

  /// Append an event to a sampled probe's timeline. One branch when the
  /// recorder is disabled; unknown probe ids are ignored (evicted slots).
  void record(std::uint64_t probe_id, ProbeEventKind k, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (!enabled_) return;
    record_slow(probe_id, k, a, b);
  }
  [[nodiscard]] bool tracking(std::uint64_t probe_id) const {
    return enabled_ && index_.contains(probe_id);
  }

  /// Append a process-level marker; `name` must have static storage. One
  /// branch when disabled; no sampling decision, no Rng draw. Bounded FIFO:
  /// oldest markers fall off past `max_markers`.
  void marker(const char* name, std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) return;
    marker_slow(name, a, b);
  }
  [[nodiscard]] const std::deque<Marker>& markers() const { return markers_; }

  // ---- transport correlation ----
  // A flushed UploadBatch carries many records; the Agent binds the sampled
  // probe ids among them to the carrying channel message, keyed by
  // (owner tag = host id, channel seq). Transport-level events then fan out
  // to every bound timeline.

  void bind_batch(std::uint64_t owner_tag, std::uint64_t chan_seq,
                  std::vector<std::uint64_t> probe_ids);
  void batch_event(std::uint64_t owner_tag, std::uint64_t chan_seq,
                   ProbeEventKind k, std::uint64_t a = 0);
  void unbind_batch(std::uint64_t owner_tag, std::uint64_t chan_seq);

  // ---- inspection & rendering ----

  [[nodiscard]] const ProbeTimeline* timeline(std::uint64_t probe_id) const;
  /// Every live timeline, oldest first.
  [[nodiscard]] std::vector<const ProbeTimeline*> timelines() const;

  /// {"config":{...},"probes_seen":N,...,"timelines":[...]}
  void write_json(json::Writer& w) const;
  /// write_json() into a string.
  [[nodiscard]] std::string to_json() const;
  /// chrome://tracing events, written into the writer's open array: every
  /// marker as a global instant on pid 1, then one track (pid 2, tid = ring
  /// slot) per sampled probe, the probe's whole life as an outer 'X' span
  /// with one nested 'X' span per layer crossing. See
  /// obs::write_chrome_trace().
  void write_chrome_events(json::Writer& w) const;

  [[nodiscard]] std::uint64_t probes_sampled() const { return sampled_; }
  [[nodiscard]] std::uint64_t probes_seen() const { return seen_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }
  [[nodiscard]] std::size_t live_timelines() const { return index_.size(); }

 private:
  void record_slow(std::uint64_t probe_id, ProbeEventKind k, std::uint64_t a,
                   std::uint64_t b);
  void marker_slow(const char* name, std::uint64_t a, std::uint64_t b);
  [[nodiscard]] TimeNs stamp();

  bool enabled_ = false;
  FlightRecorderConfig cfg_;
  ClockFn clock_;
  Rng rng_{1};
  TimeNs fallback_tick_ = 0;

  std::vector<ProbeTimeline> ring_;
  std::size_t next_slot_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // probe id -> slot

  struct Binding {
    std::vector<std::uint64_t> probe_ids;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Binding> bindings_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> binding_order_;
  std::deque<Marker> markers_;

  std::uint64_t seen_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t dropped_ = 0;

  telemetry::Counter m_sampled_, m_events_, m_evicted_, m_dropped_;
};

/// Process-wide recorder used by the built-in instrumentation (Agent, fabric,
/// verbs, Analyzer, Controller, faults, chaos).
FlightRecorder& recorder();

}  // namespace rpm::obs
