#include "routing/ecmp.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace rpm::routing {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TimeNs Path::propagation_total(const topo::Topology& topo) const {
  TimeNs total = 0;
  for (LinkId l : links) total += topo.link(l).propagation;
  return total;
}

EcmpRouter::EcmpRouter(const topo::Topology& topo, std::uint64_t seed)
    : topo_(topo), seed_(seed) {
  build_tables();
}

void EcmpRouter::build_tables() {
  const auto& tors = topo_.tor_switches();
  tor_ordinal_.assign(topo_.num_switches(),
                      std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < tors.size(); ++i) {
    tor_ordinal_[tors[i].value] = i;
  }

  candidates_.assign(tors.size(), {});
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();

  for (std::size_t ti = 0; ti < tors.size(); ++ti) {
    const SwitchId dst_tor = tors[ti];
    // BFS on the switch-only graph from the destination ToR.
    std::vector<std::uint32_t> dist(topo_.num_switches(), kInf);
    std::deque<SwitchId> q;
    dist[dst_tor.value] = 0;
    q.push_back(dst_tor);
    while (!q.empty()) {
      const SwitchId s = q.front();
      q.pop_front();
      for (LinkId out : topo_.out_links(topo::NodeRef::sw(s))) {
        const topo::Link& l = topo_.link(out);
        if (!l.to.is_switch()) continue;
        const SwitchId nb = l.to.as_switch();
        if (dist[nb.value] == kInf) {
          dist[nb.value] = dist[s.value] + 1;
          q.push_back(nb);
        }
      }
    }
    // Candidates at each switch: out-links to switch neighbours one step
    // closer to dst_tor. (Already sorted because out_links is sorted.)
    auto& per_switch = candidates_[ti];
    per_switch.assign(topo_.num_switches(), {});
    for (std::size_t s = 0; s < topo_.num_switches(); ++s) {
      if (dist[s] == kInf || dist[s] == 0) continue;
      for (LinkId out : topo_.out_links(topo::NodeRef::sw(SwitchId{
               static_cast<std::uint32_t>(s)}))) {
        const topo::Link& l = topo_.link(out);
        if (!l.to.is_switch()) continue;
        if (dist[l.to.as_switch().value] + 1 == dist[s]) {
          per_switch[s].push_back(out);
        }
      }
    }
  }
}

const std::vector<LinkId>& EcmpRouter::candidates(SwitchId sw,
                                                  SwitchId dst_tor) const {
  const std::size_t ord = tor_ordinal_.at(dst_tor.value);
  if (ord == std::numeric_limits<std::size_t>::max()) {
    throw std::invalid_argument("candidates: dst is not a ToR");
  }
  return candidates_[ord].at(sw.value);
}

std::size_t EcmpRouter::pick(SwitchId sw, const FiveTuple& tuple,
                             std::size_t n) const {
  if (n == 0) throw std::invalid_argument("pick: no candidates");
  const std::uint64_t h =
      mix64(tuple.stable_hash() ^ mix64(seed_ ^ (sw.value + 1)));
  return static_cast<std::size_t>(h % n);
}

Path EcmpRouter::resolve(RnicId src, RnicId dst, const FiveTuple& tuple,
                         const LinkUpFn& link_up) const {
  const auto up = [&](LinkId l) { return !link_up || link_up(l); };

  // Every hop after the first adds one link, so the loop guard keeps a path
  // within its inline capacity.
  constexpr std::size_t kMaxHops = kMaxPathLinks - 1;
  Path path;

  const topo::RnicInfo& s = topo_.rnic(src);
  const topo::RnicInfo& d = topo_.rnic(dst);

  // First hop: RNIC to its ToR.
  if (!up(s.uplink)) return path;  // blackholed at the host link
  path.links.push_back(s.uplink);

  SwitchId cur = s.tor;
  const std::size_t ord = tor_ordinal_.at(d.tor.value);
  if (ord == std::numeric_limits<std::size_t>::max()) {
    throw std::invalid_argument("resolve: destination not under a ToR");
  }

  for (std::size_t hop = 0; hop < kMaxHops; ++hop) {
    if (cur == d.tor) {
      if (!up(d.downlink)) return path;  // ToR -> RNIC link down
      path.links.push_back(d.downlink);
      path.complete = true;
      return path;
    }
    const auto& cand = candidates_[ord][cur.value];
    // Hash among the live candidates only, so a failure re-hashes among
    // survivors. Walking to the k-th live candidate instead of building a
    // filtered copy keeps the hop allocation-free.
    const auto n_live = static_cast<std::size_t>(
        std::count_if(cand.begin(), cand.end(), up));
    if (n_live == 0) return path;  // blackhole
    std::size_t k = pick(cur, tuple, n_live);
    LinkId next = cand[k];
    if (n_live < cand.size()) {
      for (LinkId l : cand) {
        if (up(l) && k-- == 0) {
          next = l;
          break;
        }
      }
    }
    path.links.push_back(next);
    cur = topo_.link(next).to.as_switch();
  }
  return path;  // loop guard tripped; report incomplete
}

TracerouteService::TracerouteService(const EcmpRouter& router,
                                     double max_responses_per_sec)
    : router_(router), rate_(max_responses_per_sec) {
  if (rate_ <= 0.0) {
    throw std::invalid_argument("TracerouteService: rate must be > 0");
  }
  buckets_.resize(router_.topology().num_switches());
}

bool TracerouteService::consume_token(SwitchId sw, TimeNs now) {
  Bucket& b = buckets_[sw.value];
  const double refill = to_seconds(now - b.last) * rate_;
  b.tokens = std::min(rate_, b.tokens + refill);  // burst = 1 s worth
  b.last = now;
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return true;
  }
  return false;
}

TracerouteService::Result TracerouteService::trace(RnicId src, RnicId dst,
                                                   const FiveTuple& tuple,
                                                   TimeNs now,
                                                   const LinkUpFn& link_up) {
  Result r;
  r.path = router_.resolve(src, dst, tuple, link_up);
  r.all_responded = true;
  // Every switch the path enters answers from its own budget.
  for (LinkId l : r.path.links) {
    const topo::NodeRef to = router_.topology().link(l).to;
    if (to.is_switch() && !consume_token(to.as_switch(), now)) {
      r.all_responded = false;
    }
  }
  return r;
}

}  // namespace rpm::routing
