#include "telemetry/export.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace rpm::telemetry {

namespace {

// A sample value: integral values without a fraction ("42"), everything
// else as %.9g. Deterministic across runs given identical doubles.
std::string sample_value(double v) {
  char buf[40];
  const bool integral =
      std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15;
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.9g", v);
  return buf;
}

// Prometheus exposition format: inside a label value, backslash, double
// quote, and newline MUST be escaped (\\, \", \n) or the scrape breaks.
std::string prom_escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// HELP text escaping: backslash and newline only (quotes are legal there).
std::string prom_escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prometheus_labels(const Labels& labels, const char* extra_key,
                              const char* extra_value) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const Label& l : labels) {
    if (!first) out += ',';
    first = false;
    out += l.key;
    out += "=\"";
    out += prom_escape_label(l.value);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  // # HELP / # TYPE exactly once per family, even if the snapshot ever
  // interleaves families (the usual sorted order makes the set a no-op).
  std::unordered_set<std::string> emitted_families;
  for (const SeriesSample& s : snap.series) {
    if (emitted_families.insert(s.name).second) {
      if (!s.help.empty()) {
        out += "# HELP " + s.name + ' ' + prom_escape_help(s.help) + '\n';
      }
      out += "# TYPE " + s.name + ' ';
      out += s.type == MetricType::kHistogram ? "summary"
                                              : metric_type_name(s.type);
      out += '\n';
    }
    switch (s.type) {
      case MetricType::kCounter:
        out += s.name + prometheus_labels(s.labels, nullptr, nullptr) + ' ' +
               std::to_string(s.counter_value) + '\n';
        break;
      case MetricType::kGauge:
        out += s.name + prometheus_labels(s.labels, nullptr, nullptr) + ' ' +
               sample_value(s.gauge_value) + '\n';
        break;
      case MetricType::kHistogram: {
        static constexpr std::pair<const char*, double SeriesSample::*>
            kQuantiles[] = {{"0.5", &SeriesSample::hist_p50},
                            {"0.9", &SeriesSample::hist_p90},
                            {"0.99", &SeriesSample::hist_p99},
                            {"0.999", &SeriesSample::hist_p999}};
        for (const auto& [q, member] : kQuantiles) {
          out += s.name + prometheus_labels(s.labels, "quantile", q) + ' ' +
                 sample_value(s.*member) + '\n';
        }
        out += s.name + "_sum" + prometheus_labels(s.labels, nullptr, nullptr) +
               ' ' + sample_value(s.hist_sum) + '\n';
        out += s.name + "_count" +
               prometheus_labels(s.labels, nullptr, nullptr) + ' ' +
               std::to_string(s.hist_count) + '\n';
        break;
      }
    }
  }
  return out;
}

PeriodicDumper::PeriodicDumper(sim::Scheduler& sched, TimeNs period,
                               Sink sink, MetricsRegistry* reg)
    : reg_(reg),
      sink_(std::move(sink)),
      task_(sched, period, [this] { dump_now(); }) {
  if (!sink_) throw std::invalid_argument("PeriodicDumper: sink required");
}

PeriodicDumper::~PeriodicDumper() { stop(); }

void PeriodicDumper::start(TimeNs first_delay) { task_.start(first_delay); }

void PeriodicDumper::stop() {
  if (task_.running()) task_.cancel();
}

bool PeriodicDumper::running() const { return task_.running(); }

void PeriodicDumper::dump_now() {
  ++dumps_;
  sink_(to_prometheus(reg_->snapshot()));
}

}  // namespace rpm::telemetry
