// Router-level forwarding over the ground-truth topology.
//
// Combines the AS-level RoutingOracle with hot-potato intra-AS routing:
// inside an AS, traffic takes the shortest (latency) backbone path to the
// egress border router closest to where it entered, which is how real
// ISPs behave and what gives traceroute its familiar shape. The hop list
// records, for every router on the path, the *ingress* interface — the
// address traceroute replies come from — so public peerings naturally
// surface as an IXP-LAN address on the far-side router (the paper's
// (IP_A, IP_e, IP_B) signature) and private peerings as the bare
// (IP_A, IP_B) adjacency.
//
// Intra-AS routing is precomputed: one flat table holds an n x n block per
// AS of n routers (row = source, column = target, in `routers_of` order).
// A 16-byte entry holds the distance, the predecessor router and the link
// the target is entered by: 16 * Σn² bytes, about 2.5 MB at paper scale
// (Σn² = 153,765). Each row is one Dijkstra run to completion, heap ordered
// by (distance, router id), neighbours in `Topology::links()` order, strict
// `<` relaxation. That gives the paths, bit for bit, of a Dijkstra that
// stops at the target's pop: every router on the target's chain is popped
// before it, and nothing strictly improves a popped router (latencies are
// non-negative); a hop's latency sums the same links in the same order.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/routing.h"
#include "topology/topology.h"

namespace cfs {

struct RouterHop {
  RouterId router;
  Ipv4 ingress;             // address this router replies from
  LinkId via_link;          // link used to reach this router (invalid: first)
  double cumulative_ms = 0;  // one-way latency from the source router
};

class ForwardingEngine {
 public:
  // Builds the per-AS tables. Throws std::logic_error on a backbone link
  // whose ends lie in two ASes.
  ForwardingEngine(const Topology& topo, const RoutingOracle& oracle);

  // Full router path from src to the router responsible for `target`.
  // Empty when the destination AS is unreachable. The first hop is `src`
  // itself (replying with its local address). Reads only immutable state,
  // so any number of threads may call it at once.
  [[nodiscard]] std::vector<RouterHop> route(RouterId src, Ipv4 target) const;

  // Router that answers for a destination address: the owning router for
  // registered interfaces, else a deterministic "homing" router inside the
  // origin AS (per-/24 anycast-free assignment).
  [[nodiscard]] std::optional<RouterId> responsible_router(Ipv4 target) const;

  // Intra-AS shortest path (backbone links only); includes both endpoints.
  // Empty when disconnected or when the routers lie in different ASes
  // (the generator guarantees a connected backbone per AS).
  [[nodiscard]] std::vector<RouterHop> intra_as_path(RouterId from,
                                                     RouterId to) const;

  // All non-backbone links instantiating the (a, b) AS adjacency.
  [[nodiscard]] const std::vector<LinkId>& links_between(Asn a, Asn b) const;

 private:
  struct Entry {
    double distance;  // infinity when unreachable
    RouterId prev;    // predecessor on the shortest path from the row's source
    LinkId link;      // link the column's router is entered by
  };

  // Table entry for the path from `from` to `to` (same AS).
  [[nodiscard]] const Entry& entry(RouterId from, RouterId to) const {
    return table_[row_[from.value] + col_[to.value]];
  }

  // Appends the intra-AS hops from `out.back()` through `to`, their
  // latencies continuing from it; false (nothing appended) if unreachable.
  bool append_path(std::vector<RouterHop>& out, RouterId to) const;

  const Topology& topo_;
  const RoutingOracle& oracle_;
  std::vector<Entry> table_;          // every AS's n x n block
  std::vector<std::uint32_t> row_;    // per router: offset of its row
  std::vector<std::uint32_t> col_;    // per router: column in its AS block
  std::unordered_map<std::uint64_t, std::vector<LinkId>> inter_as_links_;
  static const std::vector<LinkId> no_links_;
};

}  // namespace cfs
