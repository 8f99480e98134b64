// The one BENCH_*.json schema every bench emits, so the perf trajectory is
// diffable across PRs with a single validator (bench/check_bench_json.py):
//
//   {"bench": "<name>",
//    "params":  {...},   // workload knobs (deterministic)
//    "metrics": {...},   // measured results
//    "stages":  [...]}   // optional prof::ProfileReport breakdown
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "common/json.h"
#include "prof/prof.h"

namespace rpm::bench {

/// `params` and `metrics` write the members of their objects through the
/// json::Writer when the document renders, so two same-seed runs emit
/// byte-identical JSON as long as wall-clock metrics (cpu_ms and friends)
/// stay out of --dump mode.
struct BenchJson {
  std::string bench;
  std::function<void(json::Writer&)> params;
  std::function<void(json::Writer&)> metrics;
  /// The per-stage wall-clock breakdown of a profiler run: the rows of the
  /// stages that have samples.
  std::optional<prof::ProfileReport> stages;

  void write(json::Writer& w) const {
    w.begin_object().key("bench").string(bench).key("params").begin_object();
    if (params) params(w);
    w.end_object().key("metrics").begin_object();
    if (metrics) metrics(w);
    w.end_object();
    if (stages) stages->write_stage_rows(w.key("stages"), true);
    w.end_object();
  }

  [[nodiscard]] std::string str() const {
    return json::to_string([this](json::Writer& w) { write(w); });
  }

  /// The document and a newline; false when `path` is not fully written.
  [[nodiscard]] bool write_file(const std::string& path) const {
    return json::write_file(path, json::Layout::kCompact,
                            [this](json::Writer& w) {
                              write(w);
                              w.newline();
                            });
  }
};

}  // namespace rpm::bench
