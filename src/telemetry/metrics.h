// Self-observability: a process-wide metrics registry.
//
// R-Pingmesh monitors the network; this module lets it monitor *itself*
// (Agent probe rates, Analyzer pipeline cost, fabric queue state, event-loop
// throughput). Design goals, in order:
//
//  1. Cheap hot path. A Counter/Gauge/Histogram is a handle (one pointer)
//     into registry-owned storage; `inc()` is one plain add. Handles are
//     created once (construction time) and cached by the instrumented
//     component — never looked up per event.
//  2. Labeled series. A metric family (name + help + type) owns one series
//     per distinct label set, e.g. rpm_agent_probes_sent_total{host="3",
//     kind="tormesh"}. Registration deduplicates: asking again for the same
//     (name, labels) returns a handle to the same cell.
//  3. Deterministic snapshots. `snapshot()` yields families and series in
//     sorted order with no wall-clock timestamps, so exports of a
//     fixed-seed simulation are byte-identical (golden-file testable).
//
// Components that own state too large or too volatile to mirror eagerly
// (per-link queues, scheduler depth) register a *collector*: a callback run
// at snapshot time that sets gauges / mirrors counters. CollectorGuard
// unregisters on destruction so short-lived components (test fixtures,
// benches) leave no dangling callbacks behind.
//
// Single-threaded by contract, like the event loop that drives every
// instrumented component (DESIGN §5b): cells are plain fields and nothing
// here locks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace rpm::telemetry {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* metric_type_name(MetricType t);

/// One label, e.g. {"host", "3"}. Label sets are sorted by key on
/// registration so {"a=1","b=2"} and {"b=2","a=1"} name the same series.
struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

namespace detail {

struct SeriesCell {
  Labels labels;
  std::string label_key;  // canonical "k=v,k=v" form (sort + export key)
  std::uint64_t counter = 0;
  double gauge = 0.0;
  // Set exactly for histogram series (so every Histogram handle has one):
  // the distribution and the sum of its samples.
  std::unique_ptr<LogHistogram> hist;
  double hist_sum = 0.0;
};

}  // namespace detail

/// Monotonic event count. `set()` exists only for collectors mirroring an
/// externally maintained monotonic counter (e.g. LinkState::drops_corrupt).
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const {
    if (cell_) cell_->counter += n;
  }
  void set(std::uint64_t v) const {
    if (cell_) cell_->counter = v;
  }
  [[nodiscard]] std::uint64_t value() const {
    return cell_ ? cell_->counter : 0;
  }
  [[nodiscard]] bool valid() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::SeriesCell* c) : cell_(c) {}
  detail::SeriesCell* cell_ = nullptr;
};

/// Point-in-time value (queue depth, pending events, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (cell_) cell_->gauge = v;
  }
  void add(double d) const {
    if (cell_) cell_->gauge += d;
  }
  [[nodiscard]] double value() const {
    return cell_ ? cell_->gauge : 0.0;
  }
  [[nodiscard]] bool valid() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::SeriesCell* c) : cell_(c) {}
  detail::SeriesCell* cell_ = nullptr;
};

/// Distribution backed by LogHistogram (log-bucketed, ~4 % resolution,
/// bounded memory regardless of sample count) over one range, 1..1e12:
/// samples outside it are clamped into the edge buckets.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const {
    if (!cell_) return;
    cell_->hist->add(v);
    cell_->hist_sum += v;
  }
  [[nodiscard]] std::uint64_t count() const {
    return cell_ ? cell_->hist->count() : 0;
  }
  [[nodiscard]] double sum() const { return cell_ ? cell_->hist_sum : 0.0; }
  [[nodiscard]] double percentile(double q) const {
    return cell_ ? cell_->hist->percentile(q) : 0.0;
  }
  [[nodiscard]] bool valid() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::SeriesCell* c) : cell_(c) {}
  detail::SeriesCell* cell_ = nullptr;
};

/// Value-copy of one series at snapshot time.
struct SeriesSample {
  std::string name;
  Labels labels;
  std::string label_key;
  MetricType type = MetricType::kCounter;
  std::string help;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  // histogram only:
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
  double hist_p50 = 0.0;
  double hist_p90 = 0.0;
  double hist_p99 = 0.0;
  double hist_p999 = 0.0;
};

/// Deterministically ordered copy of every series (families sorted by name,
/// series sorted by canonical label key).
struct Snapshot {
  std::vector<SeriesSample> series;

  /// Exact-match lookup (labels need not be pre-sorted). nullptr if absent.
  [[nodiscard]] const SeriesSample* find(const std::string& name,
                                         const Labels& labels = {}) const;

  /// Sum of counter/gauge values over every series of `name` whose label set
  /// contains all of `subset` (e.g. sum over `kind` for one `host`).
  [[nodiscard]] double sum(const std::string& name,
                           const Labels& subset = {}) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Throws std::invalid_argument on an empty name or when
  /// `name` is already registered with a different metric type.
  Counter counter(const std::string& name, const std::string& help,
                  Labels labels = {});
  Gauge gauge(const std::string& name, const std::string& help,
              Labels labels = {});
  Histogram histogram(const std::string& name, const std::string& help,
                      Labels labels = {});

  /// Collector callback, run (in registration order) at the start of every
  /// snapshot. It may create series and set values on `*this`.
  using CollectorFn = std::function<void(MetricsRegistry&)>;
  int add_collector(CollectorFn fn);
  void remove_collector(int id);

  [[nodiscard]] Snapshot snapshot();

  [[nodiscard]] std::size_t num_series() const;
  [[nodiscard]] std::size_t num_collectors() const;

  /// Drop every family, series, and collector (test isolation).
  void reset();

 private:
  struct Family {
    MetricType type;
    std::string help;
    // key: canonical label string. unique_ptr keeps cell addresses stable.
    std::map<std::string, std::unique_ptr<detail::SeriesCell>> series;
  };

  detail::SeriesCell* get_or_create(const std::string& name,
                                    const std::string& help, Labels labels,
                                    MetricType type);

  std::map<std::string, Family> families_;
  std::vector<std::pair<int, CollectorFn>> collectors_;
  int next_collector_id_ = 1;
};

/// The process-wide default registry every built-in instrumentation point
/// uses. Tests wanting isolation construct their own MetricsRegistry or call
/// registry().reset().
MetricsRegistry& registry();

/// RAII collector registration; unregisters on destruction so components
/// with shorter lifetimes than the registry cannot leave dangling callbacks.
class CollectorGuard {
 public:
  CollectorGuard() = default;
  CollectorGuard(MetricsRegistry& reg, MetricsRegistry::CollectorFn fn)
      : reg_(&reg), id_(reg.add_collector(std::move(fn))) {}
  ~CollectorGuard() { release(); }
  CollectorGuard(CollectorGuard&& o) noexcept : reg_(o.reg_), id_(o.id_) {
    o.reg_ = nullptr;
    o.id_ = 0;
  }
  CollectorGuard& operator=(CollectorGuard&& o) noexcept {
    if (this != &o) {
      release();
      reg_ = o.reg_;
      id_ = o.id_;
      o.reg_ = nullptr;
      o.id_ = 0;
    }
    return *this;
  }
  CollectorGuard(const CollectorGuard&) = delete;
  CollectorGuard& operator=(const CollectorGuard&) = delete;

 private:
  void release() {
    if (reg_ != nullptr && id_ != 0) reg_->remove_collector(id_);
    reg_ = nullptr;
    id_ = 0;
  }
  MetricsRegistry* reg_ = nullptr;
  int id_ = 0;
};

}  // namespace rpm::telemetry
