// Figure 12 reproduction: rail-optimized clusters let R-Pingmesh simplify
// Cluster Monitoring (§7.4). NICs of one host sit on different rails, so
// host-LOCAL inter-NIC probes must traverse the top-tier spines: with enough
// 5-tuples, self-probing covers every fabric link without any Controller
// pinglist — and a fabric fault is localized from those probes alone.
#include <algorithm>
#include <map>
#include <set>

#include "bench_util.h"
#include "core/controller.h"

namespace rpm {
namespace {

void run() {
  topo::RailConfig rcfg;
  rcfg.num_hosts = 4;
  rcfg.rails = 4;
  rcfg.num_spines = 4;
  rcfg.host_link.capacity_gbps = 100.0;
  rcfg.fabric_link.capacity_gbps = 100.0;
  host::Cluster cluster(topo::build_rail_optimized(rcfg));
  const auto& topo = cluster.topology();

  bench::print_header(
      "Figure 12: rail-optimized cluster, host-local inter-rail probing");
  std::printf("hosts=%zu rails=%u spines=%u fabric cables=%zu\n",
              topo.num_hosts(), rcfg.rails, rcfg.num_spines,
              (topo.num_links() - 2 * topo.num_rnics()) / 2);

  // Every inter-rail path crosses a spine.
  FiveTuple probe;
  probe.src_ip = topo.rnic(RnicId{0}).ip;
  probe.dst_ip = topo.rnic(RnicId{1}).ip;
  probe.src_port = 1;
  const auto p = cluster.router().resolve(RnicId{0}, RnicId{1}, probe);
  const auto crossed = std::count_if(
      p.links.begin(), p.links.end(),
      [&](LinkId l) { return topo.link(l).to.is_switch(); });
  std::printf("NIC0 -> NIC1 of host 0 crosses %td switches (rail, spine, "
              "rail)\n", crossed);

  // Coverage: how many 5-tuples per host until every fabric link is seen by
  // some host-local probe (both directions)?
  std::set<std::uint32_t> fabric_links;
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch()) fabric_links.insert(l.id.value);
  }
  std::set<std::uint32_t> covered;
  int tuples_used = 0;
  for (std::uint16_t port = 1000; covered.size() < fabric_links.size() &&
                                  port < 4000;
       ++port) {
    for (const topo::HostInfo& h : topo.hosts()) {
      for (std::size_t i = 0; i < h.rnics.size(); ++i) {
        for (std::size_t j = 0; j < h.rnics.size(); ++j) {
          if (i == j) continue;
          FiveTuple t;
          t.src_ip = topo.rnic(h.rnics[i]).ip;
          t.dst_ip = topo.rnic(h.rnics[j]).ip;
          t.src_port = port;
          const auto path = cluster.router().resolve(h.rnics[i], h.rnics[j], t);
          for (LinkId l : path.links) {
            if (fabric_links.contains(l.value)) covered.insert(l.value);
          }
        }
      }
    }
    ++tuples_used;
  }
  std::printf(
      "fabric links covered by host-local probes: %zu / %zu using %d "
      "source ports per NIC pair\n",
      covered.size(), fabric_links.size(), tuples_used);
  const std::uint32_t n_paths = core::count_parallel_paths(
      cluster.router(), topo.rnic(RnicId{0}).tor, topo.rnic(RnicId{1}).tor);
  std::printf("Equation-1 check: N=%u parallel rail->spine->rail paths need "
              "k=%u tuples at P=0.99\n",
              n_paths, core::equation1_min_tuples(n_paths, 0.99));

  // One-way fault localization without a Controller: break one rail->spine
  // cable and count which link the failed host-local probes implicate.
  fabric::Fabric& fab = cluster.fabric();
  const LinkId victim{*fabric_links.begin()};
  // Flapping (not admin-down) so forwarding state keeps pointing at it.
  fab.set_cable_flapping(victim, true);
  std::map<std::uint32_t, int> votes;
  int drops = 0, sent = 0;
  for (std::uint16_t port = 5000; port < 5200; ++port) {
    for (const topo::HostInfo& h : topo.hosts()) {
      for (std::size_t i = 0; i < h.rnics.size(); ++i) {
        const std::size_t j = (i + 1) % h.rnics.size();
        fabric::Datagram d;
        d.src = h.rnics[i];
        d.dst = h.rnics[j];
        d.tuple.src_ip = topo.rnic(h.rnics[i]).ip;
        d.tuple.dst_ip = topo.rnic(h.rnics[j]).ip;
        d.tuple.src_port = port;
        d.size = 50;
        const auto out = fab.send(d);
        ++sent;
        if (!out.delivered) {
          ++drops;
          for (LinkId l : out.path.links) ++votes[l.value];
        }
      }
    }
  }
  std::uint32_t best = 0;
  int best_votes = 0;
  for (const auto& [l, v] : votes) {
    if (v > best_votes) {
      best = l;
      best_votes = v;
    }
  }
  std::printf(
      "\ninjected fault on %s; one-way probes dropped %d/%d; top-voted link: "
      "%s (%s)\n",
      topo.link(victim).name.c_str(), drops, sent,
      topo.link(LinkId{best}).name.c_str(),
      best == victim.value || LinkId{best} == topo.link(victim).peer
          ? "CORRECT"
          : "wrong");
  std::printf(
      "Takeaway: in rail-optimized fabrics, hosts can monitor the whole "
      "cluster by probing\ntheir own NICs across rails — no pinglists, "
      "one-way timeouts suffice (§7.4).\n");
}

}  // namespace
}  // namespace rpm

int main() {
  rpm::run();
  return 0;
}
