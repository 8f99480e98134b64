// Agent-focused tests: probing cadences, the two-ACK measurement protocol's
// bookkeeping, pinglist staleness, service-tracing lifecycle, path-tracing
// cache behaviour, and upload cadence.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/agent.h"
#include "core/analyzer.h"
#include "core/controller.h"
#include "host/cluster.h"
#include "telemetry/metrics.h"
#include "traffic/dml.h"
#include "transport/transport.h"

namespace rpm::core {
namespace {

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

/// A manual deployment wired over the cluster's control plane, with the
/// upload channels tapped. Agents started at 0 s upload every second 5 s
/// tick (two periods coalesce per batch): at 10 s, 20 s, ... The tap sees a
/// record only once its batch has landed.
struct AgentBed {
  explicit AgentBed(const AnalyzerConfig& analysis = {})
      : cluster_(topo::build_clos(clos_cfg())),
        ctrl_(cluster_.topology(), cluster_.router()) {
    transport::ControlPlane& cp = cluster_.control_plane();
    for (const topo::HostInfo& h : cluster_.topology().hosts()) {
      const std::string suffix = "/h" + std::to_string(h.id.value);
      transport::Channel& up = cp.make_channel(
          "upload" + suffix, [this](std::uint64_t, std::any& payload) {
            auto* batch = std::any_cast<UploadBatch>(&payload);
            if (batch == nullptr) return;
            uploads_per_host_[batch->host.value]++;
            folded_per_host_[batch->host.value] +=
                batch->summary.folded_records;
            for (auto& r : batch->records) tap_.push_back(std::move(r));
          });
      upload_channels_.push_back(&up);
      transport::RpcChannel& rpc = cp.make_rpc_channel(
          "ctrl" + suffix, [this](const std::any& req) -> std::any {
            if (const auto* r = std::any_cast<AgentRegistration>(&req)) {
              RegistrationAck ack;
              ack.accepted = ctrl_.register_agent(r->host, r->rnics);
              ack.controller_epoch = ctrl_.epoch();
              ack.lease_duration = kLeaseDuration;
              return std::any(ack);
            }
            if (const auto* r = std::any_cast<AgentHeartbeat>(&req)) {
              return std::any(ctrl_.heartbeat(r->host));
            }
            if (const auto* r = std::any_cast<PinglistPullRequest>(&req)) {
              return std::any(serve_pinglist_pull(ctrl_, *r));
            }
            return std::any();
          });
      agents_.push_back(std::make_unique<Agent>(cluster_, h.id, ctrl_, up, rpc,
                                                AgentConfig{}, analysis));
    }
  }

  void start_all() {
    for (auto& a : agents_) a->start();
    // Registrations and first pinglist pulls are control-plane round trips;
    // let them settle, then re-pull so every Agent sees every peer.
    cluster_.run_for(msec(5));
    for (auto& a : agents_) a->refresh_pinglists();
    cluster_.run_for(msec(5));
  }

  host::Cluster cluster_;
  Controller ctrl_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<transport::Channel*> upload_channels_;  // by host id
  std::vector<ProbeRecord> tap_;
  std::unordered_map<std::uint32_t, int> uploads_per_host_;
  std::unordered_map<std::uint32_t, std::uint64_t> folded_per_host_;
};

class AgentTest : public ::testing::Test, public AgentBed {};

TEST_F(AgentTest, RegistersAllRnicsOnStart) {
  EXPECT_FALSE(ctrl_.comm_info(RnicId{0}).has_value());
  agents_[0]->start();
  cluster_.run_for(msec(2));  // registration RPC round trip
  for (RnicId r : cluster_.topology().host(HostId{0}).rnics) {
    const auto info = ctrl_.comm_info(r);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->qpn.valid());
    EXPECT_EQ(info->gid, rnic::gid_of(r));
  }
}

TEST_F(AgentTest, RestartChangesQpns) {
  agents_[0]->start();
  cluster_.run_for(msec(2));
  const Qpn before = ctrl_.comm_info(RnicId{0})->qpn;
  agents_[0]->restart();
  cluster_.run_for(msec(2));
  const Qpn after = ctrl_.comm_info(RnicId{0})->qpn;
  EXPECT_NE(before, after);
}

TEST_F(AgentTest, TorMeshCadenceIsTenPerSecond) {
  start_all();
  cluster_.run_for(sec(10));
  // Each RNIC sends ~10 ToR-mesh probes/s (§5).
  std::unordered_map<std::uint32_t, int> tormesh_by_prober;
  for (const auto& r : tap_) {
    if (r.kind == ProbeKind::kTorMesh) ++tormesh_by_prober[r.prober.value];
  }
  for (const auto& [rnic, count] : tormesh_by_prober) {
    EXPECT_NEAR(count / 10.0, 10.0, 3.0) << "rnic " << rnic;
  }
}

TEST_F(AgentTest, MeasurementsArePlausibleOnIdleFabric) {
  start_all();
  cluster_.run_for(sec(10));  // through the first upload
  std::size_t ok = 0;
  for (const auto& r : tap_) {
    if (r.status != ProbeStatus::kOk) continue;
    ++ok;
    EXPECT_GT(r.network_rtt, usec(1));
    EXPECT_LT(r.network_rtt, usec(50));
    EXPECT_GT(r.responder_delay, 0);
    EXPECT_LT(r.responder_delay, msec(10));
    EXPECT_GT(r.prober_delay, 0);
  }
  EXPECT_GT(ok, 300u);
}

TEST_F(AgentTest, TorMeshProbesStayUnderOneTor) {
  start_all();
  cluster_.run_for(sec(10));
  const auto& topo = cluster_.topology();
  std::size_t tormesh = 0;
  for (const auto& r : tap_) {
    if (r.kind != ProbeKind::kTorMesh) continue;
    ++tormesh;
    EXPECT_EQ(topo.rnic(r.prober).tor, topo.rnic(r.target).tor);
  }
  EXPECT_GT(tormesh, 0u);
}

TEST_F(AgentTest, InterTorProbesCrossTors) {
  start_all();
  cluster_.run_for(sec(10));
  const auto& topo = cluster_.topology();
  std::size_t inter = 0;
  for (const auto& r : tap_) {
    if (r.kind != ProbeKind::kInterTor) continue;
    ++inter;
    EXPECT_NE(topo.rnic(r.prober).tor, topo.rnic(r.target).tor);
  }
  EXPECT_GT(inter, 50u);
}

TEST_F(AgentTest, ProbeRecordsCarryTracedPaths) {
  start_all();
  cluster_.run_for(sec(10));
  std::size_t with_paths = 0;
  for (const auto& r : tap_) {
    if (!r.path_known) continue;
    ++with_paths;
    ASSERT_FALSE(r.fwd_path.links.empty());
    ASSERT_FALSE(r.rev_path.links.empty());
    // Forward path starts at the prober's host and ends at the target's.
    EXPECT_EQ(cluster_.topology().link(r.fwd_path.links.front()).from,
              topo::NodeRef::host(cluster_.topology().rnic(r.prober).host));
    EXPECT_EQ(cluster_.topology().link(r.rev_path.links.front()).from,
              topo::NodeRef::host(cluster_.topology().rnic(r.target).host));
  }
  EXPECT_GT(with_paths, 100u);
}

TEST_F(AgentTest, StaleQpnTimeoutsAfterPeerRestartUntilRefresh) {
  start_all();
  cluster_.run_for(sec(2));
  // Restart host 1's Agent: peers' pinglists now address stale QPNs.
  agents_[1]->restart();
  cluster_.run_for(sec(8));  // through the 10 s upload
  std::size_t stale_timeouts = 0;
  const auto& h1_rnics = cluster_.topology().host(HostId{1}).rnics;
  const std::unordered_set<std::uint32_t> h1_set{h1_rnics[0].value,
                                                 h1_rnics[1].value};
  for (const auto& r : tap_) {
    if (r.status == ProbeStatus::kTimeout && h1_set.contains(r.target.value)) {
      ++stale_timeouts;
      // The stale QPN in the record no longer matches the registry.
      EXPECT_NE(r.target_qpn, ctrl_.comm_info(r.target)->qpn);
    }
  }
  EXPECT_GT(stale_timeouts, 5u);
  // After an explicit refresh, probes succeed again.
  for (auto& a : agents_) a->refresh_pinglists();
  tap_.clear();
  cluster_.run_for(sec(10));  // through the 20 s upload
  std::size_t ok_to_h1 = 0;
  for (const auto& r : tap_) {
    if (r.status == ProbeStatus::kOk && h1_set.contains(r.target.value)) {
      ++ok_to_h1;
    }
  }
  EXPECT_GT(ok_to_h1, 20u);
}

TEST_F(AgentTest, ServiceTracingUsesServiceTuplesAndService) {
  start_all();
  traffic::DmlConfig dml;
  dml.service = ServiceId{5};
  dml.workers = {RnicId{0}, RnicId{8}};
  dml.compute_time = msec(100);
  dml.comm_bytes = 10'000'000;
  dml.base_port = 33000;
  traffic::DmlService svc(cluster_, dml);
  svc.start();
  tap_.clear();
  cluster_.run_for(sec(10));  // through the 10 s upload
  std::size_t service_probes = 0;
  std::unordered_set<std::uint16_t> ports;
  for (const auto& r : tap_) {
    if (r.kind != ProbeKind::kServiceTracing) continue;
    ++service_probes;
    EXPECT_EQ(r.service, ServiceId{5});
    ports.insert(r.tuple.src_port);
  }
  // 10 ms cadence per RNIC with entries (§5): hundreds in 10 s.
  EXPECT_GT(service_probes, 300u);
  // The probes reuse the service's source ports (33000, 33001).
  EXPECT_TRUE(ports.contains(33000));
  EXPECT_TRUE(ports.contains(33001));
  EXPECT_EQ(ports.size(), 2u);
  svc.stop();
  const TimeNs stopped = cluster_.scheduler().now();
  tap_.clear();
  cluster_.run_for(sec(10));  // through the 20 s upload
  for (const auto& r : tap_) {
    if (r.kind != ProbeKind::kServiceTracing) continue;
    EXPECT_LE(r.sent_at, stopped)
        << "tracing must pause when connections close";
  }
}

TEST_F(AgentTest, ServiceConnectedBeforePeerRegistersIsTraced) {
  // The job connects at the instant the Agents start, before any
  // registration RPC has landed: no comm info exists for either peer yet.
  traffic::DmlConfig dml;
  dml.service = ServiceId{5};
  dml.workers = {RnicId{0}, RnicId{8}};
  dml.compute_time = msec(100);
  dml.comm_bytes = 10'000'000;
  dml.base_port = 35000;
  traffic::DmlService svc(cluster_, dml);
  for (auto& a : agents_) a->start();
  svc.start();
  cluster_.run_for(sec(10) + msec(10));  // the first upload leaves at 10 s
  std::unordered_map<std::uint16_t, std::size_t> per_port;
  for (const auto& r : tap_) {
    if (r.kind == ProbeKind::kServiceTracing) ++per_port[r.tuple.src_port];
  }
  EXPECT_GT(per_port[35000], 300u);
  EXPECT_GT(per_port[35001], 300u);
  EXPECT_EQ(per_port.size(), 2u);
  svc.stop();
}

TEST_F(AgentTest, IdleWindowFiresNoServiceTracingProbe) {
  // With no service connection, service tracing pauses (§4.2.2): a window
  // with no connection live sends no service-tracing probe, while the
  // cluster-monitoring tasks keep probing.
  const auto sent = [this](const char* kind) {
    const telemetry::Snapshot snap = telemetry::registry().snapshot();
    std::uint64_t total = 0;
    for (std::size_t h = 0; h < cluster_.num_hosts(); ++h) {
      const telemetry::SeriesSample* s =
          snap.find("rpm_agent_probes_sent_total",
                    {{"host", std::to_string(h)}, {"kind", kind}});
      if (s != nullptr) total += s->counter_value;
    }
    return total;
  };
  start_all();
  cluster_.run_for(msec(20));  // every task has ticked once
  const std::uint64_t service0 = sent("service-tracing");
  const std::uint64_t tormesh0 = sent("tor-mesh");
  cluster_.run_for(sec(1));
  EXPECT_EQ(sent("service-tracing"), service0);
  EXPECT_GT(sent("tor-mesh"), tormesh0);
}

TEST_F(AgentTest, ServiceTracingWakesOnItsPhaseGrid) {
  start_all();
  traffic::DmlConfig dml;
  dml.service = ServiceId{5};
  dml.workers = {RnicId{0}, RnicId{8}};
  dml.compute_time = msec(100);
  dml.comm_bytes = 10'000'000;
  dml.base_port = 37000;
  traffic::DmlService svc(cluster_, dml);
  svc.start();
  cluster_.run_for(sec(1));
  svc.stop();
  const TimeNs stopped = cluster_.scheduler().now();
  // Asleep; reconnect off the 10 ms grid.
  cluster_.run_for(msec(500) + usec(3'333));
  const TimeNs woke = cluster_.scheduler().now();
  svc.start();
  cluster_.run_for(sec(9));  // past the 10 s upload
  svc.stop();
  std::vector<TimeNs> before;
  std::vector<TimeNs> after;
  for (const auto& r : tap_) {
    if (r.kind != ProbeKind::kServiceTracing || r.prober != RnicId{0}) continue;
    EXPECT_TRUE(r.sent_at <= stopped || r.sent_at > woke)
        << "traced while no connection was live";
    (r.sent_at < woke ? before : after).push_back(r.sent_at);
  }
  ASSERT_GT(before.size(), 50u);
  ASSERT_GT(after.size(), 50u);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  // The first probe after the wake is the next point of the old grid.
  EXPECT_LE(after.front() - woke, msec(10));
  EXPECT_EQ((after.front() - before.front()) % msec(10), 0);
  EXPECT_EQ((after.back() - before.back()) % msec(10), 0);
}

TEST_F(AgentTest, ServiceClosedBeforePeerRegistersIsNeverTraced) {
  traffic::DmlConfig dml;
  dml.service = ServiceId{5};
  dml.workers = {RnicId{0}, RnicId{8}};
  dml.base_port = 36000;
  traffic::DmlService svc(cluster_, dml);
  for (auto& a : agents_) a->start();
  svc.start();
  svc.stop();
  cluster_.run_for(sec(10) + msec(10));  // through the first upload
  ASSERT_FALSE(tap_.empty());
  for (const auto& r : tap_) {
    EXPECT_NE(r.kind, ProbeKind::kServiceTracing)
        << "a parked connection that closed must be forgotten";
  }
  for (const auto& a : agents_) EXPECT_EQ(a->service_entries(), 0u);
}

TEST_F(AgentTest, ServiceProbesFollowServicePath) {
  start_all();
  traffic::DmlConfig dml;
  dml.service = ServiceId{5};
  dml.workers = {RnicId{0}, RnicId{8}};
  dml.compute_time = msec(100);
  dml.comm_bytes = 10'000'000;
  dml.base_port = 34000;
  traffic::DmlService svc(cluster_, dml);
  svc.start();
  const auto service_path =
      cluster_.fabric().flow_path(svc.connections()[0].flow).links;
  tap_.clear();
  cluster_.run_for(sec(11));  // past the 10 s upload
  std::size_t checked = 0;
  for (const auto& r : tap_) {
    if (r.kind != ProbeKind::kServiceTracing || !r.path_known) continue;
    // Both endpoints trace with the same source port (each in its own
    // direction); compare only the 0 -> 8 prober's records.
    if (r.tuple.src_port != 34000 || r.prober != RnicId{0}) continue;
    EXPECT_EQ(r.fwd_path.links, service_path)
        << "probe must ride the service flow's ECMP path";
    ++checked;
  }
  EXPECT_GT(checked, 50u);
  svc.stop();
}

TEST_F(AgentTest, DownHostAgentGoesSilent) {
  start_all();
  cluster_.run_for(sec(2));
  cluster_.host(HostId{0}).set_down(true);
  const int uploads_before = uploads_per_host_[0];
  tap_.clear();
  cluster_.run_for(sec(10));
  EXPECT_EQ(uploads_per_host_[0], uploads_before);
  for (const auto& r : tap_) {
    EXPECT_NE(r.prober_host, HostId{0}) << "down host must not probe";
  }
}

TEST_F(AgentTest, StopDestroysUdQps) {
  agents_[0]->start();
  const auto qp_count_started =
      cluster_.rnic_device(RnicId{0}).active_qp_count();
  EXPECT_GT(qp_count_started, 0u);
  agents_[0]->stop();
  EXPECT_EQ(cluster_.rnic_device(RnicId{0}).active_qp_count(), 0u);
}

TEST_F(AgentTest, StopFlushesOutboxThroughTransport) {
  start_all();
  cluster_.run_for(sec(2));  // accumulate records, short of the 5 s timer
  tap_.clear();
  agents_[0]->stop();
  cluster_.run_for(msec(10));  // final batch traverses the control plane
  std::size_t from_h0 = 0;
  for (const auto& r : tap_) {
    if (r.prober_host == HostId{0}) ++from_h0;
  }
  EXPECT_GT(from_h0, 0u) << "stop() must flush, not discard, the outbox";
}

TEST_F(AgentTest, DeadHostStopDropsOutboxAndCountsIt) {
  start_all();
  cluster_.run_for(sec(2));
  cluster_.host(HostId{0}).set_down(true);
  const auto drops_before = telemetry::registry()
                                .counter("rpm_transport_msgs_total", "",
                                         {{"channel", "upload/h0"},
                                          {"result", "dropped"}})
                                .value();
  tap_.clear();
  agents_[0]->stop();
  cluster_.run_for(msec(10));
  for (const auto& r : tap_) {
    EXPECT_NE(r.prober_host, HostId{0}) << "dead host cannot flush";
  }
  const auto drops_after = telemetry::registry()
                               .counter("rpm_transport_msgs_total", "",
                                        {{"channel", "upload/h0"},
                                         {"result", "dropped"}})
                               .value();
  EXPECT_GT(drops_after, drops_before)
      << "discarded outbox must surface as result=\"dropped\"";
}

TEST_F(AgentTest, DownHostStopsRetransmitting) {
  start_all();
  cluster_.run_for(sec(2));
  // Analyzer outage: the batch uploaded at 10 s keeps retrying.
  transport::Channel& up = *upload_channels_[0];
  up.set_peer_down(true);
  cluster_.run_for(sec(9));
  ASSERT_GT(agents_[0]->uploads_in_flight(), 0u);
  // The host dies mid-outage. Its next upload tick (15 s) cancels the
  // retries, counted as drops, so nothing it sent lands after it died.
  cluster_.host(HostId{0}).set_down(true);
  const std::uint64_t dropped_before = up.counters().dropped;
  cluster_.run_for(sec(5));
  EXPECT_EQ(agents_[0]->uploads_in_flight(), 0u);
  EXPECT_GT(up.counters().dropped, dropped_before);
  const int uploads_before = uploads_per_host_[0];
  up.set_peer_down(false);
  cluster_.run_for(sec(5));
  EXPECT_EQ(uploads_per_host_[0], uploads_before);
}

TEST_F(AgentTest, StopFlushesFoldedSummaryInSketchMode) {
  // Under sketch_mode kOn, healthy records fold into the batch summary
  // instead of the outbox.
  AnalyzerConfig sketch_on;
  sketch_on.sketch_mode = SketchMode::kOn;
  AgentBed bed(sketch_on);
  bed.start_all();
  // 7 s: the 5 s tick only counted a period (two coalesce), and every
  // healthy record folded into the summary.
  bed.cluster_.run_for(sec(7));
  ASSERT_EQ(bed.uploads_per_host_[0], 0);
  bed.agents_[0]->stop();
  bed.cluster_.run_for(msec(10));  // final batch traverses the control plane
  EXPECT_EQ(bed.uploads_per_host_[0], 1);
  EXPECT_GT(bed.folded_per_host_[0], 0u)
      << "stop() must flush, not strand, the folded summary";
}

TEST_F(AgentTest, DefaultConfigCoalescesTwoPeriods) {
  start_all();
  cluster_.run_for(sec(20) + msec(100));
  // The 5 s upload timer flushes only every other tick (two periods
  // coalesce), so 2 batches in 20 s instead of 4, each twice the size.
  ASSERT_EQ(uploads_per_host_.size(), cluster_.num_hosts());
  for (const auto& [host, count] : uploads_per_host_) {
    EXPECT_EQ(count, 2) << "host " << host;
  }
  std::size_t per_host_records = 0;
  for (const auto& r : tap_) {
    if (r.prober_host == HostId{0}) ++per_host_records;
  }
  EXPECT_GT(per_host_records, 100u) << "coalescing must not shed records";
}

}  // namespace
}  // namespace rpm::core
