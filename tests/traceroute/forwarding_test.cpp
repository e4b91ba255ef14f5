#include "traceroute/forwarding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "support/mini_net.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cfs {
namespace {

using testing::MiniNet;

struct ForwardingFixture {
  MiniNet net;
  Asn t1a, t1b, a, b, c, e;
  LinkId c_a_link, c_e_link;

  ForwardingFixture() {
    t1a = net.add_as(100, AsType::Tier1, {0, 1, 4});
    t1b = net.add_as(101, AsType::Tier1, {0, 2, 5});
    a = net.add_as(1000, AsType::Transit, {1, 4});
    b = net.add_as(1001, AsType::Transit, {2, 5});
    c = net.add_as(5000, AsType::Content, {1, 3});
    e = net.add_as(10000, AsType::Eyeball, {2, 3});

    net.xconnect(t1a, t1b, 0, BusinessRel::PeerPeer);
    net.xconnect(a, t1a, 1, BusinessRel::CustomerProvider);
    net.xconnect(b, t1b, 2, BusinessRel::CustomerProvider);
    c_a_link = net.xconnect(c, a, 1, BusinessRel::CustomerProvider);
    net.xconnect(e, b, 2, BusinessRel::CustomerProvider);
    net.join_ixp(c, 3);
    net.join_ixp(e, 3);
    c_e_link = net.public_peer(c, e, BusinessRel::PeerPeer);
    net.topo.validate();
  }
};

TEST(Forwarding, ResponsibleRouterForInterface) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  const Link& link = fx.net.topo.link(fx.c_a_link);
  EXPECT_EQ(fwd.responsible_router(link.a.address), link.a.router);
  EXPECT_EQ(fwd.responsible_router(link.b.address), link.b.router);
}

TEST(Forwarding, ResponsibleRouterForBareAddressIsInOriginAs) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  const Prefix& block = fx.net.topo.as_of(fx.e).prefixes.front();
  const auto router = fwd.responsible_router(block.at(block.size() / 2));
  ASSERT_TRUE(router.has_value());
  EXPECT_EQ(fx.net.topo.router(*router).owner, fx.e);
}

TEST(Forwarding, ResponsibleRouterUnknownAddress) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  EXPECT_FALSE(fwd.responsible_router(*Ipv4::parse("9.9.9.9")).has_value());
}

TEST(Forwarding, IntraAsPathCoversBackboneChain) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  // Tier1a routers: fac 0, 1 (Frankfurt) and 4 (London), chained in
  // facility order 0-1-4 by MiniNet.
  const RouterId from = fx.net.router(fx.t1a, 0);
  const RouterId to = fx.net.router(fx.t1a, 4);
  const auto path = fwd.intra_as_path(from, to);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].router, from);
  EXPECT_EQ(path[2].router, to);
  // Cumulative latency grows along the path.
  EXPECT_LT(path[0].cumulative_ms, path[1].cumulative_ms);
  EXPECT_LT(path[1].cumulative_ms, path[2].cumulative_ms);
  // Ingress of intermediate hops is a backbone address of the owner.
  const auto* iface = fx.net.topo.find_interface(path[1].ingress);
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->role, InterfaceRole::Backbone);
}

TEST(Forwarding, PrivatePeeringShowsPtpIngress) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  // From C's router toward A's address space: the hop into A must carry
  // A's side of the cross-connect /30.
  const Prefix& a_block = fx.net.topo.as_of(fx.a).prefixes.front();
  const Ipv4 target = a_block.at(a_block.size() / 2);
  const auto path = fwd.route(fx.net.router(fx.c, 3), target);
  ASSERT_FALSE(path.empty());
  const Link& link = fx.net.topo.link(fx.c_a_link);
  bool crossed = false;
  for (const auto& hop : path)
    if (hop.via_link == fx.c_a_link) {
      crossed = true;
      EXPECT_EQ(hop.ingress, link.b.address);  // A is endpoint b
      EXPECT_EQ(fx.net.topo.router(hop.router).owner, fx.a);
    }
  EXPECT_TRUE(crossed);
}

TEST(Forwarding, PublicPeeringShowsIxpLanIngress) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  // C -> E goes over the IXP; the hop entering E replies from E's IXP LAN
  // address: the (IP_A, IP_e, ...) signature of public peering.
  const Prefix& e_block = fx.net.topo.as_of(fx.e).prefixes.front();
  const Ipv4 target = e_block.at(e_block.size() / 2);
  const auto path = fwd.route(fx.net.router(fx.c, 3), target);
  ASSERT_FALSE(path.empty());
  bool crossed = false;
  for (const auto& hop : path)
    if (hop.via_link == fx.c_e_link) {
      crossed = true;
      EXPECT_EQ(fx.net.topo.ixp_of_address(hop.ingress), fx.net.ix);
      EXPECT_EQ(fx.net.topo.router(hop.router).owner, fx.e);
    }
  EXPECT_TRUE(crossed);
}

TEST(Forwarding, FirstHopIsSourceRouter) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  const RouterId src = fx.net.router(fx.c, 1);
  const Prefix& e_block = fx.net.topo.as_of(fx.e).prefixes.front();
  const auto path = fwd.route(src, e_block.at(100));
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path[0].router, src);
  EXPECT_EQ(path[0].cumulative_ms, 0.0);
}

TEST(Forwarding, UnreachableTargetYieldsEmptyPath) {
  ForwardingFixture fx;
  fx.net.add_as(65001, AsType::Enterprise, {5});
  fx.net.topo.validate();
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  const Prefix& z_block = fx.net.topo.as_of(Asn(65001)).prefixes.front();
  EXPECT_TRUE(fwd.route(fx.net.router(fx.c, 1), z_block.at(10)).empty());
}

TEST(Forwarding, LinksBetweenSymmetric) {
  ForwardingFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  EXPECT_EQ(fwd.links_between(fx.c, fx.a).size(), 1u);
  EXPECT_EQ(fwd.links_between(fx.a, fx.c).size(), 1u);
  EXPECT_TRUE(fwd.links_between(fx.c, fx.b).empty());
}

// Property: on a generated topology, every hop in every route is entered
// via a link that is actually incident to that hop's router, cumulative
// latency is non-decreasing, and consecutive routers share a link.
TEST(ForwardingProperty, GeneratedRoutesAreWellFormed) {
  const Topology topo = generate_topology(GeneratorConfig::tiny());
  RoutingOracle oracle(topo);
  ForwardingEngine fwd(topo, oracle);
  Rng rng(31);

  const auto ases = topo.ases();
  int nonempty = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto& src_as = ases[rng.index(ases.size())];
    const auto& dst_as = ases[rng.index(ases.size())];
    const auto src_routers = topo.routers_of(src_as.asn);
    const Prefix& block = dst_as.prefixes.front();
    const Ipv4 target = block.at(1 + rng.uniform(block.size() - 2));
    const auto path =
        fwd.route(src_routers[rng.index(src_routers.size())], target);
    if (path.empty()) continue;
    ++nonempty;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i > 0) {
        ASSERT_TRUE(path[i].via_link.valid());
        const Link& link = topo.link(path[i].via_link);
        EXPECT_TRUE(link.a.router == path[i].router ||
                    link.b.router == path[i].router);
        EXPECT_TRUE(link.a.router == path[i - 1].router ||
                    link.b.router == path[i - 1].router);
        EXPECT_GE(path[i].cumulative_ms, path[i - 1].cumulative_ms);
      }
    }
  }
  EXPECT_GT(nonempty, 100);
}

// The per-call Dijkstra that the per-AS tables replaced, kept as the
// reference: adjacency in topo.links() order, heap ordered by (distance,
// router id), strict `<` relaxation, stop at the target's first pop, and
// the hops' latencies summed along the chain from the source.
class ReferenceForwarding {
 public:
  explicit ReferenceForwarding(const Topology& topo)
      : topo_(topo), backbone_(topo.routers().size()) {
    for (const Link& link : topo.links())
      if (link.type == LinkType::Backbone) {
        backbone_[link.a.router.value].push_back(
            {link.b.router, link.id, link.latency_ms});
        backbone_[link.b.router.value].push_back(
            {link.a.router, link.id, link.latency_ms});
      }
  }

  std::vector<RouterHop> intra_as_path(RouterId from, RouterId to) const {
    const RouterHop first{from, topo_.router(from).local_address,
                          LinkId::invalid(), 0};
    if (from == to) return {first};
    std::unordered_map<std::uint32_t, double> dist;
    std::unordered_map<std::uint32_t, std::pair<RouterId, LinkId>> prev;
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[from.value] = 0.0;
    heap.emplace(0.0, from.value);
    while (!heap.empty()) {
      const auto [d, cur] = heap.top();
      heap.pop();
      if (d > dist[cur]) continue;
      if (cur == to.value) break;
      for (const Adjacency& adj : backbone_[cur]) {
        const double cand = d + adj.latency;
        const auto it = dist.find(adj.peer.value);
        if (it == dist.end() || cand < it->second) {
          dist[adj.peer.value] = cand;
          prev[adj.peer.value] = {RouterId(cur), adj.link};
          heap.emplace(cand, adj.peer.value);
        }
      }
    }
    if (!dist.contains(to.value)) return {};
    std::vector<std::pair<RouterId, LinkId>> chain;
    for (RouterId cur = to; cur != from; cur = prev.at(cur.value).first)
      chain.emplace_back(cur, prev.at(cur.value).second);
    std::reverse(chain.begin(), chain.end());
    std::vector<RouterHop> path{first};
    double acc = 0.0;
    for (const auto& [router, link_id] : chain) {
      const Link& link = topo_.link(link_id);
      acc += link.latency_ms;
      path.push_back(RouterHop{
          router, link.a.router == router ? link.a.address : link.b.address,
          link_id, acc});
    }
    return path;
  }

 private:
  struct Adjacency {
    RouterId peer;
    LinkId link;
    double latency;
  };
  const Topology& topo_;
  std::vector<std::vector<Adjacency>> backbone_;
};

void expect_same_hops(const std::vector<RouterHop>& got,
                      const std::vector<RouterHop>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].router, want[i].router) << "hop " << i;
    EXPECT_EQ(got[i].ingress, want[i].ingress) << "hop " << i;
    EXPECT_EQ(got[i].via_link, want[i].via_link) << "hop " << i;
    EXPECT_EQ(got[i].cumulative_ms, want[i].cumulative_ms) << "hop " << i;
  }
}

// Property: the per-AS tables give exactly the per-call Dijkstra's path for
// every ordered router pair of every AS (latencies compared bit for bit),
// and route() gives the same hops computed serially or from pool workers
// reading the tables at once.
TEST(ForwardingProperty, TablesMatchPerCallDijkstra) {
  for (const GeneratorConfig& config :
       {GeneratorConfig::tiny(), GeneratorConfig::small_scale()}) {
    const Topology topo = generate_topology(config);
    RoutingOracle oracle(topo);
    ForwardingEngine fwd(topo, oracle);
    const ReferenceForwarding ref(topo);

    std::size_t pairs = 0;
    for (const auto& as : topo.ases())
      for (const RouterId from : topo.routers_of(as.asn))
        for (const RouterId to : topo.routers_of(as.asn)) {
          SCOPED_TRACE(::testing::Message() << "AS " << as.asn.value << " "
                                            << from.value << "->" << to.value);
          const auto want = ref.intra_as_path(from, to);
          ASSERT_FALSE(want.empty());
          expect_same_hops(fwd.intra_as_path(from, to), want);
          ++pairs;
        }
    EXPECT_GT(pairs, topo.routers().size());

    Rng rng(config.seed);
    const auto ases = topo.ases();
    std::vector<std::pair<RouterId, Ipv4>> queries;
    while (queries.size() < 400) {
      const auto src_routers = topo.routers_of(ases[rng.index(ases.size())].asn);
      const Prefix& block =
          ases[rng.index(ases.size())].prefixes.front();
      queries.emplace_back(src_routers[rng.index(src_routers.size())],
                           block.at(1 + rng.uniform(block.size() - 2)));
    }
    std::vector<std::vector<RouterHop>> serial, pooled(queries.size());
    for (const auto& [src, target] : queries)
      serial.push_back(fwd.route(src, target));
    ThreadPool pool(4);
    pool.parallel_for_chunks(queries.size(),
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i)
                                 pooled[i] = fwd.route(queries[i].first,
                                                       queries[i].second);
                             });
    std::size_t nonempty = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "query " << i);
      expect_same_hops(pooled[i], serial[i]);
      nonempty += serial[i].empty() ? 0 : 1;
    }
    EXPECT_GT(nonempty, queries.size() / 2);
  }
}

}  // namespace
}  // namespace cfs
