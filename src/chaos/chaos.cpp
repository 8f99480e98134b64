#include "chaos/chaos.h"

#include <algorithm>
#include <stdexcept>

#include "common/json.h"
#include "obs/flight_recorder.h"

namespace rpm::chaos {

const char* chaos_step_name(ChaosStep::Kind k) {
  switch (k) {
    case ChaosStep::Kind::kControllerCrash: return "controller-crash";
    case ChaosStep::Kind::kControllerRestart: return "controller-restart";
    case ChaosStep::Kind::kAnalyzerOutageBegin: return "analyzer-outage-begin";
    case ChaosStep::Kind::kAnalyzerOutageEnd: return "analyzer-outage-end";
    case ChaosStep::Kind::kAgentRestart: return "agent-restart";
    case ChaosStep::Kind::kPodAnalyzerCrash: return "pod-analyzer-crash";
    case ChaosStep::Kind::kPodAnalyzerRestart: return "pod-analyzer-restart";
    case ChaosStep::Kind::kInject: return "inject";
    case ChaosStep::Kind::kClear: return "clear";
  }
  return "?";
}

ChaosStep::Kind chaos_step_kind_from_name(std::string_view name) {
  using Kind = ChaosStep::Kind;
  for (const Kind k :
       {Kind::kControllerCrash, Kind::kControllerRestart,
        Kind::kAnalyzerOutageBegin, Kind::kAnalyzerOutageEnd,
        Kind::kAgentRestart, Kind::kPodAnalyzerCrash, Kind::kPodAnalyzerRestart,
        Kind::kInject, Kind::kClear}) {
    if (name == chaos_step_name(k)) return k;
  }
  throw std::invalid_argument("ChaosStep: unknown kind '" + std::string(name) +
                              "'");
}

ChaosPlan& ChaosPlan::controller_crash(TimeNs at) {
  ChaosStep s;
  s.kind = ChaosStep::Kind::kControllerCrash;
  s.at = at;
  steps.push_back(std::move(s));
  return *this;
}

ChaosPlan& ChaosPlan::controller_restart(TimeNs at) {
  ChaosStep s;
  s.kind = ChaosStep::Kind::kControllerRestart;
  s.at = at;
  steps.push_back(std::move(s));
  return *this;
}

ChaosPlan& ChaosPlan::analyzer_outage(TimeNs from, TimeNs to) {
  if (to <= from) throw std::invalid_argument("analyzer_outage: to <= from");
  ChaosStep b;
  b.kind = ChaosStep::Kind::kAnalyzerOutageBegin;
  b.at = from;
  steps.push_back(std::move(b));
  ChaosStep e;
  e.kind = ChaosStep::Kind::kAnalyzerOutageEnd;
  e.at = to;
  steps.push_back(std::move(e));
  return *this;
}

ChaosPlan& ChaosPlan::agent_restart(TimeNs at, HostId host) {
  ChaosStep s;
  s.kind = ChaosStep::Kind::kAgentRestart;
  s.at = at;
  s.host = host;
  s.label = "agent-restart/h" + std::to_string(host.value);
  steps.push_back(std::move(s));
  return *this;
}

ChaosPlan& ChaosPlan::pod_analyzer_crash(TimeNs at, std::size_t pod) {
  ChaosStep s;
  s.kind = ChaosStep::Kind::kPodAnalyzerCrash;
  s.at = at;
  s.pod = pod;
  s.label = "pod-analyzer-crash/p" + std::to_string(pod);
  steps.push_back(std::move(s));
  return *this;
}

ChaosPlan& ChaosPlan::pod_analyzer_restart(TimeNs at, std::size_t pod) {
  ChaosStep s;
  s.kind = ChaosStep::Kind::kPodAnalyzerRestart;
  s.at = at;
  s.pod = pod;
  s.label = "pod-analyzer-restart/p" + std::to_string(pod);
  steps.push_back(std::move(s));
  return *this;
}

ChaosPlan& ChaosPlan::inject(TimeNs at, std::string label,
                             faults::FaultSpec spec) {
  if (!spec.valid()) throw std::invalid_argument("inject: spec required");
  ChaosStep s;
  s.kind = ChaosStep::Kind::kInject;
  s.at = at;
  s.label = std::move(label);
  s.spec = std::move(spec);
  steps.push_back(std::move(s));
  return *this;
}

ChaosPlan& ChaosPlan::clear(TimeNs at, std::string label) {
  ChaosStep s;
  s.kind = ChaosStep::Kind::kClear;
  s.at = at;
  s.clear_ref = std::move(label);
  steps.push_back(std::move(s));
  return *this;
}

namespace {

/// Half-open-ish time window [from, to] on the campaign-relative axis.
struct Window {
  TimeNs from = 0;
  TimeNs to = 0;
  [[nodiscard]] bool contains(TimeNs t) const { return t >= from && t <= to; }
  [[nodiscard]] bool overlaps(TimeNs a, TimeNs b) const {
    return a <= to && b >= from;
  }
};

}  // namespace

ChaosRunner::ChaosRunner(host::Cluster& cluster, core::RPingmesh& rpm,
                         faults::FaultInjector& injector)
    : cluster_(cluster), rpm_(rpm), injector_(injector) {}

ChaosReport ChaosRunner::run(const ChaosPlan& plan) {
  sim::Scheduler& sched = cluster_.scheduler();
  const TimeNs t0 = sched.now();
  const topo::Topology& topo = cluster_.topology();

  // ---- execute the timeline ----

  auto truths = std::make_shared<std::vector<GroundTruth>>();
  // Steps execute in `at` order; ties break by plan position (schedule_at is
  // FIFO per timestamp only if the scheduler is; sort explicitly to be
  // deterministic regardless).
  std::vector<const ChaosStep*> ordered;
  ordered.reserve(plan.steps.size());
  for (const ChaosStep& s : plan.steps) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const ChaosStep* a, const ChaosStep* b) {
                     return a->at < b->at;
                   });

  for (const ChaosStep* sp : ordered) {
    const ChaosStep& step = *sp;
    sched.schedule_at(t0 + step.at, [this, &step, t0, truths] {
      obs::recorder().marker(chaos_step_name(step.kind),
                             static_cast<std::uint64_t>(step.at));
      const TimeNs rel = cluster_.scheduler().now() - t0;
      switch (step.kind) {
        case ChaosStep::Kind::kControllerCrash:
          rpm_.crash_controller();
          return;
        case ChaosStep::Kind::kControllerRestart:
          rpm_.restart_controller();
          return;
        case ChaosStep::Kind::kAnalyzerOutageBegin:
          rpm_.begin_analyzer_outage();
          return;
        case ChaosStep::Kind::kAnalyzerOutageEnd:
          rpm_.end_analyzer_outage();
          return;
        case ChaosStep::Kind::kPodAnalyzerCrash:
          rpm_.crash_pod_analyzer(step.pod);
          return;
        case ChaosStep::Kind::kPodAnalyzerRestart:
          rpm_.restart_pod_analyzer(step.pod);
          return;
        case ChaosStep::Kind::kAgentRestart:
        case ChaosStep::Kind::kInject: {
          // An Agent restart's ground truth is a QPN reset, injected first
          // (the injector only flags it); the restart recreates the QPs.
          const bool restart = step.kind == ChaosStep::Kind::kAgentRestart;
          const int h = injector_.inject(
              restart ? faults::FaultSpec::qpn_reset(step.host) : step.spec);
          truths->push_back({step.label, injector_.record(h), rel});
          if (restart) rpm_.agent(step.host).restart();
          return;
        }
        case ChaosStep::Kind::kClear: {
          for (GroundTruth& gt : *truths) {
            if (gt.label != step.clear_ref || gt.cleared_at != kNoTime) {
              continue;
            }
            injector_.clear(gt.rec.handle);
            gt.cleared_at = rel;
            return;
          }
          throw std::logic_error("ChaosPlan: clear() of unknown label '" +
                                 step.clear_ref + "'");
        }
      }
    });
  }

  const std::size_t history_before = rpm_.scored_history().size();
  cluster_.run_for(plan.duration);

  // ---- build outage windows from the plan ----

  const auto first_after = [&](ChaosStep::Kind kind, TimeNs at) -> TimeNs {
    TimeNs best = plan.duration;
    for (const ChaosStep* sp : ordered) {
      if (sp->kind == kind && sp->at >= at && sp->at < best) best = sp->at;
    }
    return best;
  };
  std::vector<Window> outage_windows;  // control-plane blackouts + grace
  std::vector<Window> restart_windows; // per-agent-restart collateral
  for (const ChaosStep* sp : ordered) {
    switch (sp->kind) {
      case ChaosStep::Kind::kControllerCrash:
        outage_windows.push_back(
            {sp->at, first_after(ChaosStep::Kind::kControllerRestart, sp->at) +
                         plan.outage_grace});
        break;
      case ChaosStep::Kind::kAnalyzerOutageBegin:
        outage_windows.push_back(
            {sp->at, first_after(ChaosStep::Kind::kAnalyzerOutageEnd, sp->at) +
                         plan.outage_grace});
        break;
      case ChaosStep::Kind::kPodAnalyzerCrash: {
        // Match the restart of the SAME pod (other pods keep analyzing).
        TimeNs best = plan.duration;
        for (const ChaosStep* rp : ordered) {
          if (rp->kind == ChaosStep::Kind::kPodAnalyzerRestart &&
              rp->pod == sp->pod && rp->at >= sp->at && rp->at < best) {
            best = rp->at;
          }
        }
        outage_windows.push_back({sp->at, best + plan.outage_grace});
        break;
      }
      case ChaosStep::Kind::kAgentRestart:
        restart_windows.push_back({sp->at, sp->at + plan.outage_grace});
        break;
      default:
        break;
    }
  }

  // ---- score every period the campaign produced ----

  ChaosReport rep;
  rep.seed = plan.seed;
  rep.duration = plan.duration;

  const core::AnalyzerConfig& acfg = rpm_.analyzer_config();
  std::vector<bool> matched(truths->size(), false);

  // Kinds that are probe noise by design: reported, never recalled, and
  // not "active faults" for mislocalization purposes.
  static constexpr faults::FaultKind kNoiseKinds[] = {
      faults::FaultKind::kQpnReset, faults::FaultKind::kAgentCpuOccupation,
      faults::FaultKind::kControlPlaneDegradation};
  const auto is_noise_kind = [&](faults::FaultKind k) {
    return std::find(std::begin(kNoiseKinds), std::end(kNoiseKinds), k) !=
           std::end(kNoiseKinds);
  };

  // A fault is matchable while active, plus grace for verdict lag.
  const auto gt_active = [&](const GroundTruth& gt, TimeNs t) {
    const TimeNs end =
        (gt.cleared_at == kNoTime ? plan.duration : gt.cleared_at) +
        plan.match_grace;
    return t >= gt.injected_at && t <= end;
  };
  const auto link_matches = [&](const faults::FaultRecord& rec,
                                const core::Problem& p) {
    if (!rec.link.valid()) return false;
    const topo::Link& l = topo.link(rec.link);
    for (LinkId s : p.suspect_links) {
      if (s == rec.link || s == l.peer) return true;
    }
    // Switch-granularity localization: either endpoint switch counts.
    for (SwitchId s : p.suspect_switches) {
      if ((l.from.is_switch() && l.from.as_switch() == s) ||
          (l.to.is_switch() && l.to.as_switch() == s)) {
        return true;
      }
    }
    return false;
  };

  const std::deque<core::PeriodReport>& history = rpm_.scored_history();
  for (std::size_t pi = history_before; pi < history.size(); ++pi) {
    const core::PeriodReport& period = history[pi];
    const TimeNs period_end = period.period_end - t0;
    ChaosReport::PeriodSummary ps;
    ps.period_end = period_end;
    ps.records = period.records_processed;
    ps.problems = period.problems.size();
    for (const Window& w : outage_windows) {
      if (w.contains(period_end)) ps.in_outage_window = true;
    }

    for (const core::Problem& p : period.problems) {
      ++rep.problems_total;
      using Cat = core::ProblemCategory;
      if (p.category == Cat::kQpnResetNoise ||
          p.category == Cat::kAgentCpuNoise) {
        ++rep.noise_problems;
        continue;
      }
      if (p.category == Cat::kHighNetworkRtt) {
        // Congestion verdicts have no injected ground truth here (they
        // emerge from collateral traffic shifts); reported, not scored.
        ++rep.unscored_problems;
        continue;
      }

      bool is_tp = false;
      for (std::size_t gi = 0; gi < truths->size(); ++gi) {
        const GroundTruth& gt = (*truths)[gi];
        if (!gt_active(gt, period_end)) continue;
        const faults::FaultKind k = gt.rec.kind;
        bool hit = false;
        switch (p.category) {
          case Cat::kSwitchNetworkProblem:
            hit = faults::is_network_fault(k) && !faults::is_rnic_fault(k) &&
                  (link_matches(gt.rec, p) ||
                   (gt.rec.sw.valid() &&
                    std::find(p.suspect_switches.begin(),
                              p.suspect_switches.end(),
                              gt.rec.sw) != p.suspect_switches.end()));
            break;
          case Cat::kRnicProblem:
            hit = faults::is_rnic_fault(k) && gt.rec.rnic.valid() &&
                  p.rnic == gt.rec.rnic;
            break;
          case Cat::kHostDown:
            hit = k == faults::FaultKind::kHostDown && gt.rec.host.valid() &&
                  p.host == gt.rec.host;
            break;
          case Cat::kHighProcessingDelay:
            hit = (k == faults::FaultKind::kCpuOverload ||
                   k == faults::FaultKind::kAgentCpuOccupation) &&
                  gt.rec.host.valid() && p.host == gt.rec.host;
            break;
          default:
            break;
        }
        if (hit) {
          is_tp = true;
          matched[gi] = true;
        }
      }
      if (is_tp) {
        ++rep.true_positives;
        continue;
      }

      // Unmatched host-down: explainable by a control-plane blackout or an
      // Agent restart? The Analyzer saw real silence; the cause was the
      // campaign, not the host. Reported as collateral, not a false claim.
      if (p.category == Cat::kHostDown) {
        const TimeNs silence_from =
            period_end - core::kHostSilenceThreshold - acfg.period;
        bool collateral = false;
        for (const Window& w : outage_windows) {
          if (w.overlaps(silence_from, period_end)) collateral = true;
        }
        for (const Window& w : restart_windows) {
          if (w.overlaps(silence_from, period_end)) collateral = true;
        }
        if (collateral) {
          ++rep.collateral_host_down;
          continue;
        }
      }

      // A scored fault in flight explains an unmatched claim as wrong (or
      // premature) *localization* of a real event — a quality problem, but
      // not a phantom conjured by the control-plane campaign.
      bool fault_active = false;
      for (const GroundTruth& gt : *truths) {
        if (!is_noise_kind(gt.rec.kind) && gt_active(gt, period_end)) {
          fault_active = true;
        }
      }
      if (fault_active) {
        ++rep.mislocalized;
        continue;
      }

      ++rep.false_positives;
      ++ps.false_positives;
      if (p.category == Cat::kSwitchNetworkProblem) {
        ++rep.switch_false_positives;
      }
      for (const Window& w : outage_windows) {
        if (w.contains(period_end)) {
          ++rep.outage_false_positives;
          break;
        }
      }
    }
    rep.period_summaries.push_back(ps);
  }
  rep.periods = rep.period_summaries.size();

  // ---- ground-truth scoring (recall) ----

  std::size_t scored_truths = 0;
  std::size_t recalled = 0;
  for (std::size_t gi = 0; gi < truths->size(); ++gi) {
    const GroundTruth& gt = (*truths)[gi];
    ChaosReport::GroundTruthScore s;
    s.label = gt.label;
    s.kind = faults::fault_kind_name(gt.rec.kind);
    s.injected_at = gt.injected_at;
    s.cleared_at = gt.cleared_at;
    s.matched = matched[gi];
    s.scored = !is_noise_kind(gt.rec.kind);
    if (s.scored) {
      ++scored_truths;
      if (s.matched) ++recalled;
    }
    rep.ground_truths.push_back(std::move(s));
  }
  const std::size_t claims =
      rep.true_positives + rep.false_positives + rep.mislocalized;
  rep.precision = claims == 0
                      ? 1.0
                      : static_cast<double>(rep.true_positives) /
                            static_cast<double>(claims);
  rep.recall = scored_truths == 0 ? 1.0
                                  : static_cast<double>(recalled) /
                                        static_cast<double>(scored_truths);

  // ---- periods-to-recovery after each control-plane event ----

  for (const ChaosStep* sp : ordered) {
    switch (sp->kind) {
      case ChaosStep::Kind::kControllerCrash:
      case ChaosStep::Kind::kControllerRestart:
      case ChaosStep::Kind::kAnalyzerOutageBegin:
      case ChaosStep::Kind::kAnalyzerOutageEnd:
      case ChaosStep::Kind::kPodAnalyzerCrash:
      case ChaosStep::Kind::kPodAnalyzerRestart:
        break;
      default:
        continue;
    }
    ChaosReport::Recovery r;
    r.event = chaos_step_name(sp->kind);
    r.at = sp->at;
    int count = 0;
    for (const ChaosReport::PeriodSummary& ps : rep.period_summaries) {
      if (ps.period_end <= sp->at) continue;
      ++count;
      if (ps.records > 0 && ps.false_positives == 0) {
        r.periods_to_recover = count;
        break;
      }
    }
    rep.recoveries.push_back(std::move(r));
  }

  return rep;
}

namespace {

/// The report in json::Layout::kPrettyRows, with its trailing newline.
void write_report(json::Writer& w, const ChaosReport& r) {
  w.begin_object()
      .key("seed").integer(r.seed)
      .key("duration_ns").integer(r.duration)
      .key("periods").integer(r.periods)
      .key("problems_total").integer(r.problems_total)
      .key("true_positives").integer(r.true_positives)
      .key("false_positives").integer(r.false_positives)
      .key("switch_false_positives").integer(r.switch_false_positives)
      .key("outage_false_positives").integer(r.outage_false_positives)
      .key("mislocalized").integer(r.mislocalized)
      .key("collateral_host_down").integer(r.collateral_host_down)
      .key("noise_problems").integer(r.noise_problems)
      .key("unscored_problems").integer(r.unscored_problems)
      .key("precision").fixed(r.precision, 6)
      .key("recall").fixed(r.recall, 6)
      .key("ground_truths").begin_array();
  for (const ChaosReport::GroundTruthScore& g : r.ground_truths) {
    w.begin_object()
        .key("label").string(g.label)
        .key("kind").string(g.kind)
        .key("scored").boolean(g.scored)
        .key("matched").boolean(g.matched)
        .key("injected_at_ns").integer(g.injected_at)
        .key("cleared_at_ns");
    if (g.cleared_at == kNoTime) {
      w.null();
    } else {
      w.integer(g.cleared_at);
    }
    w.end_object();
  }
  w.end_array().key("recoveries").begin_array();
  for (const ChaosReport::Recovery& rc : r.recoveries) {
    w.begin_object()
        .key("event").string(rc.event)
        .key("at_ns").integer(rc.at)
        .key("periods_to_recover").integer(rc.periods_to_recover)
        .end_object();
  }
  w.end_array().key("period_summaries").begin_array();
  for (const ChaosReport::PeriodSummary& p : r.period_summaries) {
    w.begin_object()
        .key("period_end_ns").integer(p.period_end)
        .key("records").integer(p.records)
        .key("problems").integer(p.problems)
        .key("false_positives").integer(p.false_positives)
        .key("in_outage_window").boolean(p.in_outage_window)
        .end_object();
  }
  w.end_array().end_object().newline();
}

}  // namespace

std::string ChaosReport::to_json() const {
  return json::to_string([this](json::Writer& w) { write_report(w, *this); },
                         json::Layout::kPrettyRows);
}

bool ChaosReport::write_file(const std::string& path) const {
  return json::write_file(path, json::Layout::kPrettyRows,
                          [this](json::Writer& w) { write_report(w, *this); });
}

}  // namespace rpm::chaos
