#include "telemetry/export.h"

#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/json.h"

namespace rpm::telemetry {

namespace {

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
               json::fmt_double(s.gauge_value) + '\n';
        break;
      case MetricType::kHistogram: {
        static constexpr std::pair<const char*, double SeriesSample::*>
            kQuantiles[] = {{"0.5", &SeriesSample::hist_p50},
                            {"0.9", &SeriesSample::hist_p90},
                            {"0.99", &SeriesSample::hist_p99},
                            {"0.999", &SeriesSample::hist_p999}};
        for (const auto& [q, member] : kQuantiles) {
          out += s.name + prometheus_labels(s.labels, "quantile", q) + ' ' +
                 json::fmt_double(s.*member) + '\n';
        }
        out += s.name + "_sum" + prometheus_labels(s.labels, nullptr, nullptr) +
               ' ' + json::fmt_double(s.hist_sum) + '\n';
        out += s.name + "_count" +
               prometheus_labels(s.labels, nullptr, nullptr) + ' ' +
               std::to_string(s.hist_count) + '\n';
        break;
      }
    }
  }
  return out;
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const SeriesSample& s : snap.series) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::append_quoted(out, s.name);
    out += ",\"type\":";
    json::append_quoted(out, metric_type_name(s.type));
    out += ",\"labels\":{";
    bool lfirst = true;
    for (const Label& l : s.labels) {
      if (!lfirst) out += ',';
      lfirst = false;
      json::append_quoted(out, l.key);
      out += ':';
      json::append_quoted(out, l.value);
    }
    out += '}';
    switch (s.type) {
      case MetricType::kCounter:
        out += ",\"value\":" + std::to_string(s.counter_value);
        break;
      case MetricType::kGauge:
        out += ",\"value\":" + json::fmt_double(s.gauge_value);
        break;
      case MetricType::kHistogram:
        out += ",\"count\":" + std::to_string(s.hist_count) +
               ",\"sum\":" + json::fmt_double(s.hist_sum) +
               ",\"p50\":" + json::fmt_double(s.hist_p50) +
               ",\"p90\":" + json::fmt_double(s.hist_p90) +
               ",\"p99\":" + json::fmt_double(s.hist_p99) +
               ",\"p999\":" + json::fmt_double(s.hist_p999);
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

PeriodicDumper::PeriodicDumper(sim::Scheduler& sched, TimeNs period,
                               Sink sink, ExportFormat format,
                               MetricsRegistry* reg)
    : reg_(reg),
      sink_(std::move(sink)),
      format_(format),
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
  const Snapshot snap = reg_->snapshot();
  sink_(format_ == ExportFormat::kPrometheus ? to_prometheus(snap)
                                             : to_json(snap));
}

}  // namespace rpm::telemetry
