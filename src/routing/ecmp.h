// ECMP routing over a Topology.
//
// Routing is next-hop based, like real Clos fabrics: each switch hashes the
// outer 5-tuple with a per-switch seed and picks among the out-links that lie
// on a shortest path toward the destination ToR. Candidate sets are
// precomputed by BFS from every ToR, which keeps resolve() O(path length) and
// makes the router topology-agnostic (it works for both the 3-tier Clos and
// the rail-optimized fabric).
//
// Link failures: resolve() accepts a link-up predicate. Down candidates are
// filtered out *before* hashing, so a failure re-hashes flows onto the
// surviving links — exactly the behaviour that makes post-failure Traceroute
// misleading (§4.2.3), which R-Pingmesh counters with continuous path
// tracing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/five_tuple.h"
#include "common/types.h"
#include "topo/topology.h"

namespace rpm::routing {

/// Predicate deciding whether a directed link is currently usable.
using LinkUpFn = std::function<bool(LinkId)>;

/// The longest path either topology builder makes: a cross-pod 3-tier Clos
/// path (RNIC, ToR, agg, spine, agg, ToR, RNIC) has 6 links, a rail path 4.
inline constexpr std::size_t kMaxPathLinks = 6;

/// A path's links, stored inline: a Path owns no heap memory, so a
/// ProbeRecord carrying two of them copies as plain bytes.
class LinkList {
 public:
  using value_type = LinkId;
  using iterator = const LinkId*;
  using const_iterator = const LinkId*;

  LinkList() = default;
  LinkList(std::initializer_list<LinkId> links) {
    for (LinkId l : links) push_back(l);
  }

  [[nodiscard]] const LinkId* begin() const { return links_.data(); }
  [[nodiscard]] const LinkId* end() const { return links_.data() + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] LinkId front() const { return links_[0]; }
  [[nodiscard]] LinkId back() const { return links_[size_ - 1]; }
  [[nodiscard]] LinkId operator[](std::size_t i) const { return links_[i]; }

  /// Throws std::length_error past kMaxPathLinks.
  void push_back(LinkId l) {
    if (size_ == kMaxPathLinks) {
      throw std::length_error("LinkList: more than kMaxPathLinks links");
    }
    links_[size_++] = l;
  }
  void clear() { size_ = 0; }

  friend bool operator==(const LinkList& a, const LinkList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

  /// Kept only for perfbench/replay.cpp, which binds a path's links to
  /// `const std::vector<LinkId>&` and changes only with the benchmark
  /// itself (ROADMAP item 8). Nothing else may use it; it goes with that
  /// edit.
  operator std::vector<LinkId>() const { return {begin(), end()}; }

 private:
  std::array<LinkId, kMaxPathLinks> links_{};
  std::uint8_t size_ = 0;
};

/// A resolved forwarding path: its links in traversal order. The switch a
/// hop enters is `topo.link(l).to`; only a complete path's last link enters
/// a host. `complete` is false when the packet was blackholed (all candidate
/// next-hops down), in which case `links` holds the prefix traversed.
struct Path {
  LinkList links;
  bool complete = false;

  [[nodiscard]] TimeNs propagation_total(const topo::Topology& topo) const;
};

class EcmpRouter {
 public:
  /// `seed` perturbs every switch's hash function (deterministic per seed).
  EcmpRouter(const topo::Topology& topo, std::uint64_t seed = 0x5eed);

  /// Resolve the path a packet with `tuple` takes from `src` to `dst`.
  /// `link_up` may be empty (everything up).
  [[nodiscard]] Path resolve(RnicId src, RnicId dst, const FiveTuple& tuple,
                             const LinkUpFn& link_up = {}) const;

  /// ECMP candidates at `sw` toward the ToR of `dst_tor` (pre-failure, i.e.
  /// unfiltered). Exposed for tests and for Equation-1 coverage counting.
  [[nodiscard]] const std::vector<LinkId>& candidates(SwitchId sw,
                                                      SwitchId dst_tor) const;

  /// The index the switch would pick among n candidates for this tuple.
  [[nodiscard]] std::size_t pick(SwitchId sw, const FiveTuple& tuple,
                                 std::size_t n) const;

  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

 private:
  void build_tables();

  const topo::Topology& topo_;
  std::uint64_t seed_;
  // candidates_[tor_ordinal][switch_id] = out-links on shortest paths.
  std::vector<std::vector<std::vector<LinkId>>> candidates_;
  std::vector<std::size_t> tor_ordinal_;  // switch id -> ordinal among ToRs
};

/// Traceroute facade with per-switch response rate limiting, mimicking the
/// switch-CPU constraint of §4.2.3. A trace re-resolves the *current* path
/// (post-failure rehash included). Every switch on it spends a token from
/// its per-second budget; a switch with none left does not answer, and the
/// trace is then incomplete.
class TracerouteService {
 public:
  struct Result {
    Path path;  // the underlying resolved path (ground truth for the sim)
    bool all_responded = false;
  };

  TracerouteService(const EcmpRouter& router, double max_responses_per_sec);

  /// Run one trace at simulated time `now`.
  Result trace(RnicId src, RnicId dst, const FiveTuple& tuple, TimeNs now,
               const LinkUpFn& link_up = {});

 private:
  bool consume_token(SwitchId sw, TimeNs now);

  const EcmpRouter& router_;
  double rate_;
  struct Bucket {
    double tokens = 0.0;
    TimeNs last = 0;
  };
  std::vector<Bucket> buckets_;
};

}  // namespace rpm::routing
