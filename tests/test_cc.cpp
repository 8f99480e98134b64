// Tests for congestion control: DCQCN and DelayCC behaviour on shared
// bottlenecks, the queue-depth difference that drives Figure 11, and
// bit-exact pins of every fluid-plane output a CC-governed run produces,
// with and without quiet (zero-demand) stretches.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

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
  Dcqcn cc;
  const double line = gbps_to_Bps(100);
  double r = cc.reset(0, line, line);
  fabric::CcFeedback fb;
  fb.dt = usec(100);
  fb.ecn_fraction = 1.0;
  for (int i = 0; i < 10000; ++i) r = cc.update(0, fb, r);
  EXPECT_GE(r, gbps_to_Bps(0.1));  // Dcqcn's rate floor
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

/// DCQCN that folds every feedback it is handed, and the rate it is asked
/// to update, into one digest chain per flow slot. A quiet plane replays the
/// calls it skipped flow by flow, so only the order within a slot is fixed.
class SlotDigestingDcqcn : public fabric::RateController {
 public:
  double reset(std::uint32_t slot, double demand, double line) override {
    return inner_.reset(slot, demand, line);
  }
  double update(std::uint32_t slot, const fabric::CcFeedback& fb,
                double rate) override {
    Digest& d = chains_[slot];
    d.add(fb.ecn_fraction);
    d.add(fb.queue_delay);
    d.add(fb.base_rtt);
    d.add(fb.achieved_Bps);
    d.add(fb.bottleneck_capacity_Bps);
    d.add(rate);
    return inner_.update(slot, fb, rate);
  }
  [[nodiscard]] std::string name() const override { return "slot-digest"; }

  void fold_into(Digest& out) const {
    for (const auto& [slot, d] : chains_) {
      out.add(std::uint64_t{slot});
      out.add(d.h);
    }
  }

 private:
  std::map<std::uint32_t, Digest> chains_;
  Dcqcn inner_;
};

TEST_F(CcTest, QuietPlaneOutputsArePinnedBitForBit) {
  // Incast cycles of 200 busy steps and 3,000 zero-demand steps. Each
  // zero-demand stretch drains and goes quiet, and every call that wakes a
  // quiet plane lands inside one: corruption on and off, a PCIe factor, a
  // cable down and up (re-resolve), a flap, adding and removing a flow, and
  // a topology-epoch bump. Reads go through a const Fabric, because the
  // mutable link_state() would wake the plane on every step. The digest was
  // recorded with every step run in full.
  Digest digest;
  SlotDigestingDcqcn cc;
  const fabric::Fabric& fab = std::as_const(fab_);
  std::vector<FlowId> live;
  std::vector<double> busy_demand;
  const auto step = [&] {
    fab_.step_once();
    for (FlowId id : live) {
      const fabric::FlowStats st = fab.flow_stats(id);
      digest.add(st.offered_Bps);
      digest.add(st.achieved_Bps);
      digest.add(st.loss_rate);
      digest.add(st.queue_delay);
    }
    for (std::uint32_t i = 0; i < topo_.num_links(); ++i) {
      const fabric::LinkState& s = fab.link_state(LinkId{i});
      digest.add(s.queue_bytes);
      digest.add(std::uint64_t{s.pfc_paused});
      digest.add(s.overflow_drop_frac);
    }
  };
  const auto steps = [&](int n) {
    for (int i = 0; i < n; ++i) step();
  };
  const auto add = [&](RnicId src, double gbps, std::uint16_t port,
                       fabric::RateController* ctl) {
    live.push_back(fab_.add_flow(flow(src, RnicId{0}, 0.0, port, ctl)));
    busy_demand.push_back(gbps_to_Bps(gbps));
  };
  // One cycle: busy, then a quiet stretch with a wake after 1,000 and
  // 2,000 of its steps.
  const auto cycle = [&](const auto& wake1, const auto& wake2) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      fab_.set_flow_demand(live[i], busy_demand[i]);
    }
    steps(200);
    for (FlowId id : live) fab_.set_flow_demand(id, 0.0);
    steps(1000);
    wake1();
    steps(1000);
    wake2();
    steps(1000);
  };

  for (std::uint32_t i = 0; i < 4; ++i) {
    add(RnicId{4 + i}, 100.0, static_cast<std::uint16_t>(7000 + i), &cc);
  }
  add(RnicId{1}, 60.0, 7100, nullptr);
  const LinkId bottleneck = topo_.rnic(RnicId{0}).downlink;
  const LinkId corrupt = topo_.rnic(RnicId{5}).uplink;
  const LinkId cable = fab.flow_path(live[0]).links[1];
  const LinkId flap = topo_.rnic(RnicId{4}).uplink;

  cycle([&] { fab_.link_state(corrupt).corrupt_prob = 0.01; },
        [&] { fab_.link_state(bottleneck).service_rate_factor = 0.5; });
  cycle([&] { fab_.set_cable_up(cable, false); },
        [&] {
          EXPECT_NE(fab.flow_path(live[0]).links[1], cable)
              << "path re-resolved";
          fab_.set_cable_up(cable, true);
        });
  cycle([&] { fab_.set_cable_flapping(flap, true); },
        [&] { fab_.set_cable_flapping(flap, false); });
  cycle([&] { add(RnicId{6}, 100.0, 7200, &cc); },
        [&] { fab_.link_state(corrupt).corrupt_prob = 0.0; });
  cycle([&] { fab_.bump_topology_epoch(); },
        [&] {
          fab_.remove_flow(live.back());
          live.pop_back();
          busy_demand.pop_back();
        });
  for (std::size_t i = 0; i < live.size(); ++i) {
    fab_.set_flow_demand(live[i], busy_demand[i]);
  }
  steps(200);
  EXPECT_GT(fab.link_state(bottleneck).pfc_pause_events, 0u)
      << "the incast must overflow into PFC push-back";

  // A lone flow that never queues a link: its first zero-demand step ends
  // drained while the rate it started from is not yet zero.
  for (FlowId id : live) fab_.set_flow_demand(id, 0.0);
  steps(1000);
  add(RnicId{2}, 10.0, 7300, &cc);
  fab_.set_flow_demand(live.back(), busy_demand.back());
  steps(200);
  fab_.set_flow_demand(live.back(), 0.0);
  steps(1000);
  fab_.set_flow_demand(live.back(), busy_demand.back());
  steps(10);

  cc.fold_into(digest);
  EXPECT_EQ(digest.h, 0x52dc83c517926556ULL);
}

/// Counts the update() calls each slot receives, and the calls whose
/// feedback or rate is not all zero. Whatever it returns, a zero demand
/// clamps the rate to 0.
class CountingCc : public fabric::RateController {
 public:
  double reset(std::uint32_t slot, double, double) override {
    slots.push_back(slot);
    return 0.0;
  }
  double update(std::uint32_t slot, const fabric::CcFeedback& fb,
                double rate) override {
    ++calls[slot];
    if (fb.ecn_fraction != 0.0 || fb.queue_delay != 0 ||
        fb.achieved_Bps != 0.0 || rate != 0.0) {
      ++nonzero;
    }
    return gbps_to_Bps(1.0);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }

  std::vector<std::uint32_t> slots;  // in add_flow order
  std::map<std::uint32_t, std::uint64_t> calls;
  std::uint64_t nonzero = 0;
};

TEST_F(CcTest, QuietStepsDeferControllerCalls) {
  // Three zero-demand CC flows, the third behind a deadlocked uplink, and a
  // zero-demand fixed flow, on a drained fabric.
  CountingCc cc;
  const FlowId a = fab_.add_flow(flow(RnicId{4}, RnicId{0}, 0.0, 7000, &cc));
  fab_.add_flow(flow(RnicId{5}, RnicId{1}, 0.0, 7001, &cc));
  fab_.add_flow(flow(RnicId{6}, RnicId{2}, 0.0, 7002, &cc));
  fab_.add_flow(flow(RnicId{7}, RnicId{3}, 0.0, 7003, nullptr));
  fab_.link_state(topo_.rnic(RnicId{6}).uplink).deadlocked = true;
  ASSERT_EQ(cc.slots.size(), 3u);
  const std::uint32_t blocked = cc.slots[2];

  fab_.step_once();  // a full step, which leaves the plane quiet
  EXPECT_EQ(cc.calls[cc.slots[0]], 1u);
  EXPECT_EQ(cc.calls[cc.slots[1]], 1u);
  cc.calls.clear();

  for (int i = 0; i < 1000; ++i) fab_.step_once();
  const fabric::Fabric& fab = std::as_const(fab_);
  (void)fab.flow_stats(a);
  (void)fab.flow_path(a);
  (void)fab.link_state(topo_.rnic(RnicId{0}).downlink);
  EXPECT_TRUE(cc.calls.empty()) << "quiet steps and reads call no controller";

  fab_.set_flow_demand(a, 0.0);  // wakes the plane: the skipped calls replay
  EXPECT_EQ(cc.calls[cc.slots[0]], 1000u);
  EXPECT_EQ(cc.calls[cc.slots[1]], 1000u);
  EXPECT_EQ(cc.calls.count(blocked), 0u) << "a blocked flow gets no calls";
  EXPECT_EQ(cc.nonzero, 0u);

  fab_.step_once();  // the step after a wake is a full one
  EXPECT_EQ(cc.calls[cc.slots[0]], 1001u);
  EXPECT_EQ(cc.calls.count(blocked), 0u);
}

/// Holds a flow at rate 0 for its first three updates, then sends at line
/// rate: a controller that starts a flow from zero.
class LateStartCc : public fabric::RateController {
 public:
  double reset(std::uint32_t, double, double) override { return 0.0; }
  double update(std::uint32_t, const fabric::CcFeedback&, double) override {
    return ++calls_ <= 3 ? 0.0 : gbps_to_Bps(100.0);
  }
  [[nodiscard]] std::string name() const override { return "late-start"; }

 private:
  int calls_ = 0;
};

TEST_F(CcTest, QuietRuleNeedsZeroDemand) {
  // A flow with demand can sit at rate 0 on a drained fabric and still start
  // sending later, so it must keep the plane busy.
  LateStartCc cc;
  const FlowId a = fab_.add_flow(flow(RnicId{4}, RnicId{0}, 10.0, 7000, &cc));
  for (int i = 0; i < 10; ++i) fab_.step_once();
  EXPECT_DOUBLE_EQ(std::as_const(fab_).flow_stats(a).offered_Bps,
                   gbps_to_Bps(10.0));
}

TEST_F(CcTest, QuietRuleKeepsTheSignOfAZeroRate) {
  // The fabric clamps a CC result to the flow's demand, so a demand of -0.0
  // turns a +0.0 rate into -0.0 by the end of the next step. That step must
  // not leave the plane quiet: the steps after it offer -0.0, not +0.0.
  Dcqcn cc;
  const FlowId a = fab_.add_flow(flow(RnicId{4}, RnicId{0}, 0.0, 7000, &cc));
  fab_.step_once();
  fab_.set_flow_demand(a, -0.0);
  fab_.step_once();
  fab_.step_once();
  EXPECT_TRUE(std::signbit(std::as_const(fab_).flow_stats(a).offered_Bps));
}

TEST_F(CcTest, DcqcnRatesArePinnedThroughLongCleanStretches) {
  // Every clean update scales alpha by 15/16, so a gap of more than ~11k
  // clean updates leaves alpha subnormal (or flushed to 0) when the next
  // mark lands. The rates must not tell the two apart. The digest was
  // recorded with alpha left to decay into subnormals.
  Dcqcn cc;
  const double line = gbps_to_Bps(100);
  double rate = cc.reset(0, line, line);
  fabric::CcFeedback fb;
  fb.dt = usec(100);
  Digest digest;
  int updates = 0;
  const auto run = [&](int n, double ecn) {
    fb.ecn_fraction = ecn;
    for (int i = 0; i < n; ++i) {
      rate = cc.update(0, fb, rate);
      digest.add(rate);
      ++updates;
    }
  };
  // (clean updates before the mark, marked fraction)
  const std::pair<int, double> marks[] = {
      {500, 1.0},      {11'200, 1e-6}, {11'800, 1e-4},
      {400, 1e-2},     {12'500, 0.1},  {13'000, 1.0},
  };
  for (const auto& [gap, ecn] : marks) {
    run(gap, 0.0);
    run(1, ecn);
  }
  run(50'000 - updates, 0.0);
  EXPECT_EQ(updates, 50'000);
  EXPECT_EQ(digest.h, 0x1283c7cbc7c587f3ULL);
}

}  // namespace
}  // namespace rpm::cc
