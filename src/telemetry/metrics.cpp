#include "telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace rpm::telemetry {

const char* metric_type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {

std::string canonical_key(Labels& labels) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string key;
  for (const Label& l : labels) {
    if (!key.empty()) key += ',';
    key += l.key;
    key += '=';
    key += l.value;
  }
  return key;
}

}  // namespace

const SeriesSample* Snapshot::find(const std::string& name,
                                   const Labels& labels) const {
  Labels sorted = labels;
  const std::string key = canonical_key(sorted);
  for (const SeriesSample& s : series) {
    if (s.name == name && s.label_key == key) return &s;
  }
  return nullptr;
}

double Snapshot::sum(const std::string& name, const Labels& subset) const {
  double total = 0.0;
  for (const SeriesSample& s : series) {
    if (s.name != name) continue;
    bool match = true;
    for (const Label& want : subset) {
      match = false;
      for (const Label& have : s.labels) {
        if (have.key == want.key && have.value == want.value) {
          match = true;
          break;
        }
      }
      if (!match) break;
    }
    if (!match) continue;
    total += s.type == MetricType::kGauge
                 ? s.gauge_value
                 : static_cast<double>(s.counter_value);
  }
  return total;
}

detail::SeriesCell* MetricsRegistry::get_or_create(
    const std::string& name, const std::string& help, Labels labels,
    MetricType type) {
  if (name.empty()) {
    throw std::invalid_argument("telemetry: metric name must not be empty");
  }
  const std::string key = canonical_key(labels);
  auto [fit, inserted] = families_.try_emplace(name);
  Family& fam = fit->second;
  if (inserted) {
    fam.type = type;
    fam.help = help;
  } else if (fam.type != type) {
    throw std::invalid_argument("telemetry: metric '" + name +
                                "' re-registered as a different type");
  }
  auto [sit, series_inserted] = fam.series.try_emplace(key);
  if (series_inserted) {
    auto cell = std::make_unique<detail::SeriesCell>();
    cell->labels = std::move(labels);
    cell->label_key = key;
    if (type == MetricType::kHistogram) {
      cell->hist = std::make_unique<LogHistogram>();
    }
    sit->second = std::move(cell);
  }
  return sit->second.get();
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& help, Labels labels) {
  return Counter(
      get_or_create(name, help, std::move(labels), MetricType::kCounter));
}

Gauge MetricsRegistry::gauge(const std::string& name, const std::string& help,
                             Labels labels) {
  return Gauge(
      get_or_create(name, help, std::move(labels), MetricType::kGauge));
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     const std::string& help, Labels labels) {
  return Histogram(
      get_or_create(name, help, std::move(labels), MetricType::kHistogram));
}

int MetricsRegistry::add_collector(CollectorFn fn) {
  const int id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::remove_collector(int id) {
  std::erase_if(collectors_,
                [id](const auto& entry) { return entry.first == id; });
}

Snapshot MetricsRegistry::snapshot() {
  // Run a copy: a collector may add or remove collectors while it runs.
  const std::vector<std::pair<int, CollectorFn>> collectors = collectors_;
  for (const auto& [id, fn] : collectors) fn(*this);

  Snapshot snap;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, cell] : fam.series) {
      SeriesSample s;
      s.name = name;
      s.labels = cell->labels;
      s.label_key = key;
      s.type = fam.type;
      s.help = fam.help;
      s.counter_value = cell->counter;
      s.gauge_value = cell->gauge;
      if (cell->hist) {
        s.hist_count = cell->hist->count();
        s.hist_sum = cell->hist_sum;
        s.hist_p50 = cell->hist->percentile(0.50);
        s.hist_p90 = cell->hist->percentile(0.90);
        s.hist_p99 = cell->hist->percentile(0.99);
        s.hist_p999 = cell->hist->percentile(0.999);
      }
      snap.series.push_back(std::move(s));
    }
  }
  return snap;
}

std::size_t MetricsRegistry::num_series() const {
  std::size_t n = 0;
  for (const auto& [name, fam] : families_) n += fam.series.size();
  return n;
}

std::size_t MetricsRegistry::num_collectors() const {
  return collectors_.size();
}

void MetricsRegistry::reset() {
  families_.clear();
  collectors_.clear();
}

MetricsRegistry& registry() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace rpm::telemetry
