#include "traceroute/forwarding.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace cfs {
namespace {

constexpr double kUnreachable = std::numeric_limits<double>::infinity();

std::uint64_t pair_key(Asn a, Asn b) {
  return (std::uint64_t{a.value} << 32) | b.value;
}

}  // namespace

const std::vector<LinkId> ForwardingEngine::no_links_;

ForwardingEngine::ForwardingEngine(const Topology& topo,
                                   const RoutingOracle& oracle)
    : topo_(topo), oracle_(oracle) {
  struct Adjacency {
    RouterId peer;
    LinkId link;
    double latency;
  };
  std::vector<std::vector<Adjacency>> backbone(topo.routers().size());
  for (const auto& link : topo.links()) {
    const Asn a = topo.router(link.a.router).owner;
    const Asn b = topo.router(link.b.router).owner;
    if (link.type != LinkType::Backbone) {
      inter_as_links_[pair_key(a, b)].push_back(link.id);
      inter_as_links_[pair_key(b, a)].push_back(link.id);
    } else if (a != b) {
      throw std::logic_error("ForwardingEngine: backbone link across ASes");
    } else {
      backbone[link.a.router.value].push_back(
          Adjacency{link.b.router, link.id, link.latency_ms});
      backbone[link.b.router.value].push_back(
          Adjacency{link.a.router, link.id, link.latency_ms});
    }
  }

  row_.resize(topo.routers().size());
  col_.resize(topo.routers().size());
  std::size_t cells = 0;
  for (const auto& as : topo.ases()) {
    const auto routers = topo.routers_of(as.asn);
    for (std::size_t i = 0; i < routers.size(); ++i) {
      row_[routers[i].value] =
          static_cast<std::uint32_t>(cells + i * routers.size());
      col_[routers[i].value] = static_cast<std::uint32_t>(i);
    }
    cells += routers.size() * routers.size();
  }
  table_.assign(cells,
                Entry{kUnreachable, RouterId::invalid(), LinkId::invalid()});

  // One Dijkstra per source router, run to completion (see the header).
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (const auto& as : topo.ases()) {
    for (const RouterId src : topo.routers_of(as.asn)) {
      Entry* const row = table_.data() + row_[src.value];
      row[col_[src.value]].distance = 0.0;
      heap.emplace(0.0, src.value);
      while (!heap.empty()) {
        const auto [d, cur] = heap.top();
        heap.pop();
        if (d > row[col_[cur]].distance) continue;
        for (const Adjacency& adj : backbone[cur]) {
          const double cand = d + adj.latency;
          Entry& e = row[col_[adj.peer.value]];
          if (cand < e.distance) {
            e = Entry{cand, RouterId(cur), adj.link};
            heap.emplace(cand, adj.peer.value);
          }
        }
      }
    }
  }
}

std::optional<RouterId> ForwardingEngine::responsible_router(
    Ipv4 target) const {
  if (const Interface* iface = topo_.find_interface(target))
    return iface->router;
  const auto origin = topo_.origin_of(target);
  if (!origin) return std::nullopt;
  const auto routers = topo_.routers_of(*origin);
  if (routers.empty()) return std::nullopt;
  // Deterministic per-/24 homing inside the origin AS.
  const std::uint32_t slice = (target.value() >> 8) % routers.size();
  return routers[slice];
}

bool ForwardingEngine::append_path(std::vector<RouterHop>& out,
                                   RouterId to) const {
  const RouterId from = out.back().router;
  const double clock = out.back().cumulative_ms;
  if (entry(from, to).distance == kUnreachable) return false;
  const std::size_t first = out.size();
  for (RouterId cur = to; cur != from;) {
    const Entry& e = entry(from, cur);
    const Link& link = topo_.link(e.link);
    const Ipv4 ingress =
        link.a.router == cur ? link.a.address : link.b.address;
    out.push_back(RouterHop{cur, ingress, e.link, e.distance + clock});
    cur = e.prev;
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  return true;
}

std::vector<RouterHop> ForwardingEngine::intra_as_path(RouterId from,
                                                       RouterId to) const {
  std::vector<RouterHop> path{
      RouterHop{from, topo_.router(from).local_address, LinkId::invalid(), 0}};
  if (topo_.router(from).owner != topo_.router(to).owner ||
      !append_path(path, to))
    return {};
  return path;
}

const std::vector<LinkId>& ForwardingEngine::links_between(Asn a,
                                                           Asn b) const {
  const auto it = inter_as_links_.find(pair_key(a, b));
  return it == inter_as_links_.end() ? no_links_ : it->second;
}

std::vector<RouterHop> ForwardingEngine::route(RouterId src,
                                               Ipv4 target) const {
  const auto dst_router = responsible_router(target);
  if (!dst_router) return {};
  const auto as_path = oracle_.as_path(topo_.router(src).owner,
                                       topo_.router(*dst_router).owner);
  if (as_path.empty()) return {};

  std::vector<RouterHop> full{
      RouterHop{src, topo_.router(src).local_address, LinkId::invalid(), 0}};

  // Walk the AS path, crossing one inter-AS link per adjacency.
  for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
    // Hot potato: pick the link whose near-side router is cheapest to reach
    // from the current position; ties by link id for determinism.
    const RouterId current = full.back().router;
    const Link* best = nullptr;
    bool best_a_side = false;
    double best_cost = kUnreachable;
    for (const LinkId lid : links_between(as_path[i], as_path[i + 1])) {
      const Link& link = topo_.link(lid);
      const bool a_side = topo_.router(link.a.router).owner == as_path[i];
      const double cost =
          entry(current, a_side ? link.a.router : link.b.router).distance;
      if (cost < best_cost) {
        best_cost = cost;
        best = &link;
        best_a_side = a_side;
      }
    }
    if (best == nullptr) return {};

    const LinkEnd& near = best_a_side ? best->a : best->b;
    const LinkEnd& far = best_a_side ? best->b : best->a;
    append_path(full, near.router);  // reachable: best_cost is finite
    full.push_back(RouterHop{far.router, far.address, best->id,
                             full.back().cumulative_ms + best->latency_ms});
  }

  // Final intra-AS stretch to the responsible router.
  if (!append_path(full, *dst_router)) return {};
  return full;
}

}  // namespace cfs
