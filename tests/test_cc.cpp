// Tests for congestion control: DCQCN and DelayCC behaviour on shared
// bottlenecks, the queue-depth difference that drives Figure 11, and a
// bit-exact pin of every fluid-plane output a CC-governed run produces.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "cc/cc.h"
#include "fabric/fabric.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "topo/topology.h"

namespace rpm::cc {
namespace {

topo::ClosConfig small_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 1;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 1;
  cfg.hosts_per_tor = 4;
  cfg.rnics_per_host = 1;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

class CcTest : public ::testing::Test {
 protected:
  CcTest()
      : topo_(topo::build_clos(small_cfg())),
        router_(topo_),
        fab_(topo_, router_, sched_) {}

  fabric::FlowSpec flow(RnicId src, RnicId dst, double gbps,
                        std::uint16_t port, fabric::RateController* cc) {
    fabric::FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.tuple.src_ip = topo_.rnic(src).ip;
    f.tuple.dst_ip = topo_.rnic(dst).ip;
    f.tuple.src_port = port;
    f.demand_Bps = gbps_to_Bps(gbps);
    f.controller = cc;
    return f;
  }

  /// Incast: rnics 1..n -> rnic 0 (all on the same ToR side in this cfg? use
  /// cross-ToR sources to stress the downlink).
  std::vector<FlowId> start_incast(fabric::RateController* cc, int n) {
    std::vector<FlowId> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(fab_.add_flow(flow(RnicId{static_cast<std::uint32_t>(
                                           4 + i)},  // other ToR
                                       RnicId{0}, 100.0,
                                       static_cast<std::uint16_t>(7000 + i),
                                       cc)));
    }
    fab_.start();
    return ids;
  }

  topo::Topology topo_;
  routing::EcmpRouter router_;
  sim::InlineScheduler sched_;
  fabric::Fabric fab_;
};

TEST_F(CcTest, DcqcnStartsAtDemandCappedLineRate) {
  Dcqcn cc;
  EXPECT_DOUBLE_EQ(cc.reset(0, gbps_to_Bps(40), gbps_to_Bps(100)),
                   gbps_to_Bps(40));
  EXPECT_DOUBLE_EQ(cc.reset(1, gbps_to_Bps(400), gbps_to_Bps(100)),
                   gbps_to_Bps(100));
  EXPECT_EQ(cc.name(), "dcqcn");
}

TEST_F(CcTest, DcqcnCutsOnEcnAndRecovers) {
  Dcqcn cc;
  const double line = gbps_to_Bps(100);
  double rate = cc.reset(0, line, line);
  fabric::CcFeedback fb;
  fb.dt = usec(100);
  // Marked: rate must drop.
  fb.ecn_fraction = 1.0;
  const double after_cut = cc.update(0, fb, rate);
  EXPECT_LT(after_cut, rate);
  // Clean for a while: rate recovers toward the target.
  fb.ecn_fraction = 0.0;
  double r = after_cut;
  for (int i = 0; i < 200; ++i) r = cc.update(0, fb, r);
  EXPECT_GT(r, after_cut);
  EXPECT_LE(r, line);
}

TEST_F(CcTest, DcqcnRespectsMinRate) {
  DcqcnParams params;
  Dcqcn cc(params);
  const double line = gbps_to_Bps(100);
  double r = cc.reset(0, line, line);
  fabric::CcFeedback fb;
  fb.dt = usec(100);
  fb.ecn_fraction = 1.0;
  for (int i = 0; i < 10000; ++i) r = cc.update(0, fb, r);
  EXPECT_GE(r, params.min_rate_Bps);
}

TEST_F(CcTest, DelayCcTracksTargetDelay) {
  DelayCc cc;
  const double line = gbps_to_Bps(100);
  double r = cc.reset(0, line, line);
  fabric::CcFeedback fb;
  fb.dt = usec(100);
  // Above target: decrease.
  fb.queue_delay = usec(100);
  const double down = cc.update(0, fb, r);
  EXPECT_LT(down, r);
  // Below target: increase.
  fb.queue_delay = usec(1);
  const double up = cc.update(0, fb, down);
  EXPECT_GT(up, down);
  EXPECT_EQ(cc.name(), "delaycc");
}

TEST_F(CcTest, IncastConvergesToFairShareUnderDcqcn) {
  Dcqcn cc;
  const auto ids = start_incast(&cc, 4);
  sched_.run_until(msec(200));
  // 4 flows into one 100G downlink: each should get ~25G (wide tolerance:
  // fluid DCQCN oscillates).
  for (FlowId id : ids) {
    const auto st = fab_.flow_stats(id);
    EXPECT_GT(st.achieved_Bps, gbps_to_Bps(10.0));
    EXPECT_LT(st.achieved_Bps, gbps_to_Bps(45.0));
  }
  // Aggregate cannot exceed the bottleneck.
  double total = 0;
  for (FlowId id : ids) total += fab_.flow_stats(id).achieved_Bps;
  EXPECT_LE(total, gbps_to_Bps(105.0));
}

TEST_F(CcTest, DelayCcKeepsQueuesLowerThanDcqcn) {
  // The Figure 11 claim, reduced to its mechanism: under the same incast,
  // the delay-based controller holds the bottleneck queue (and thus tail
  // RTT) far lower than DCQCN.
  const LinkId bottleneck = topo_.rnic(RnicId{0}).downlink;

  Dcqcn dcqcn;
  auto ids = start_incast(&dcqcn, 4);
  double dcqcn_queue = 0;
  for (int i = 0; i < 100; ++i) {
    sched_.run_until(sched_.now() + msec(2));
    dcqcn_queue = std::max(
        dcqcn_queue, static_cast<double>(fab_.link_state(bottleneck).queue_bytes));
  }
  for (FlowId id : ids) fab_.remove_flow(id);
  sched_.run_until(sched_.now() + msec(500));  // drain

  DelayCc delaycc;
  ids = start_incast(&delaycc, 4);
  double delaycc_queue = 0;
  for (int i = 0; i < 100; ++i) {
    sched_.run_until(sched_.now() + msec(2));
    delaycc_queue = std::max(
        delaycc_queue,
        static_cast<double>(fab_.link_state(bottleneck).queue_bytes));
  }
  EXPECT_GT(dcqcn_queue, 0.0);
  EXPECT_LT(delaycc_queue, dcqcn_queue * 0.5)
      << "delay-based CC should keep queues much shorter";
}

TEST_F(CcTest, ControllersKeepPerFlowStateSeparate) {
  Dcqcn cc;
  const double line = gbps_to_Bps(100);
  double r0 = cc.reset(0, line, line);
  double r1 = cc.reset(1, line, line);
  fabric::CcFeedback marked;
  marked.dt = usec(100);
  marked.ecn_fraction = 1.0;
  fabric::CcFeedback clean;
  clean.dt = usec(100);
  r0 = cc.update(0, marked, r0);
  r1 = cc.update(1, clean, r1);
  EXPECT_LT(r0, r1);  // only flow 0 was cut
}

/// FNV-1a over the bit patterns of every value folded in: two runs agree
/// only if every double matches to the last bit.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/// DCQCN that folds every feedback it is handed (and the rate it is asked
/// to update) into the digest before deciding.
class DigestingDcqcn : public fabric::RateController {
 public:
  explicit DigestingDcqcn(Digest& d) : digest_(d) {}
  double reset(std::uint32_t slot, double demand, double line) override {
    return inner_.reset(slot, demand, line);
  }
  double update(std::uint32_t slot, const fabric::CcFeedback& fb,
                double rate) override {
    digest_.add(std::uint64_t{slot});
    digest_.add(fb.ecn_fraction);
    digest_.add(fb.queue_delay);
    digest_.add(fb.base_rtt);
    digest_.add(fb.achieved_Bps);
    digest_.add(fb.bottleneck_capacity_Bps);
    digest_.add(rate);
    return inner_.update(slot, fb, rate);
  }
  [[nodiscard]] std::string name() const override { return "digest"; }

 private:
  Digest& digest_;
  Dcqcn inner_;
};

TEST_F(CcTest, FluidPlaneOutputsArePinnedBitForBit) {
  // Every output of the fluid plane, step by step, through incast with PFC
  // push-back, a PCIe-downgraded endpoint, corruption, a cable down and up
  // (path re-resolve), a full drain to idle and a restart. The digest was
  // recorded from the straightforward per-flow, per-link step; any change
  // to the step's arithmetic order moves it.
  Digest digest;
  DigestingDcqcn cc(digest);
  std::vector<FlowId> live;
  const auto step = [&] {
    fab_.step_once();
    for (FlowId id : live) {
      const fabric::FlowStats st = fab_.flow_stats(id);
      digest.add(st.offered_Bps);
      digest.add(st.achieved_Bps);
      digest.add(st.loss_rate);
      digest.add(st.queue_delay);
    }
    for (std::uint32_t i = 0; i < topo_.num_links(); ++i) {
      const fabric::LinkState& s = fab_.link_state(LinkId{i});
      digest.add(s.queue_bytes);
      digest.add(std::uint64_t{s.pfc_paused});
      digest.add(s.overflow_drop_frac);
    }
  };
  const auto steps = [&](int n) {
    for (int i = 0; i < n; ++i) step();
  };

  // DCQCN incast from the other ToR into rnic 0, plus a fixed-rate flow
  // under rnic 0's own ToR that CC cannot slow down.
  for (std::uint32_t i = 0; i < 4; ++i) {
    live.push_back(fab_.add_flow(flow(RnicId{4 + i}, RnicId{0}, 100.0,
                                      static_cast<std::uint16_t>(7000 + i),
                                      &cc)));
  }
  live.push_back(fab_.add_flow(flow(RnicId{1}, RnicId{0}, 60.0, 7100,
                                    nullptr)));
  const LinkId bottleneck = topo_.rnic(RnicId{0}).downlink;
  steps(50);
  fab_.link_state(bottleneck).service_rate_factor = 0.5;
  steps(30);
  fab_.link_state(topo_.rnic(RnicId{5}).uplink).corrupt_prob = 0.01;
  steps(40);
  const LinkId cable = fab_.flow_path(live[0]).links[1];
  fab_.set_cable_up(cable, false);
  steps(80);
  EXPECT_NE(fab_.flow_path(live[0]).links[1], cable) << "path re-resolved";
  fab_.set_cable_up(cable, true);
  steps(100);
  EXPECT_GT(fab_.link_state(bottleneck).pfc_pause_events, 0u)
      << "the incast must overflow into PFC push-back";

  for (FlowId id : live) fab_.remove_flow(id);
  live.clear();
  steps(1000);
  for (std::uint32_t i = 0; i < topo_.num_links(); ++i) {
    ASSERT_EQ(fab_.link_state(LinkId{i}).queue_bytes, 0) << "link " << i;
  }

  live.push_back(fab_.add_flow(flow(RnicId{6}, RnicId{0}, 100.0, 7200, &cc)));
  steps(100);

  EXPECT_EQ(digest.h, 0x5916fa2e60675058ULL);
}

}  // namespace
}  // namespace rpm::cc
