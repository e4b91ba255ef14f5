#include "core/report.h"

#include <set>

namespace cfs {

const InterfaceInference* CfsReport::find(Ipv4 addr) const {
  const auto it = interfaces.find(addr);
  return it == interfaces.end() ? nullptr : &it->second;
}

std::size_t CfsReport::resolved_interfaces() const {
  std::size_t count = 0;
  for (const auto& [addr, inf] : interfaces) count += inf.resolved();
  return count;
}

double CfsReport::resolved_fraction() const {
  if (interfaces.empty()) return 0.0;
  return static_cast<double>(resolved_interfaces()) /
         static_cast<double>(interfaces.size());
}

std::size_t CfsReport::city_constrained(const Topology& topo) const {
  std::size_t count = 0;
  for (const auto& [addr, inf] : interfaces)
    if (!inf.resolved() && inf.city(topo).has_value()) ++count;
  return count;
}

std::size_t CfsReport::no_data_interfaces() const {
  std::size_t count = 0;
  for (const auto& [addr, inf] : interfaces) count += !inf.has_constraint;
  return count;
}

CfsReport::RouterStats CfsReport::router_stats() const {
  // Group link participation by alias set (observed router proxy);
  // interfaces with no alias set count as their own router.
  struct Roles {
    bool public_peering = false;
    bool private_peering = false;
    std::set<std::uint32_t> ixps;
  };
  std::unordered_map<std::size_t, Roles> by_router;
  std::unordered_map<Ipv4, Roles> singletons;

  // Address -> alias-set index, built once; an address listed in several
  // sets keeps the lowest index, as AliasSets::set_of reports it.
  std::unordered_map<Ipv4, std::size_t> set_index;
  for (std::size_t i = 0; i < aliases.sets.size(); ++i)
    for (const Ipv4 addr : aliases.sets[i]) set_index.try_emplace(addr, i);

  auto roles_for = [&](Ipv4 addr) -> Roles& {
    const auto it = set_index.find(addr);
    if (it != set_index.end()) return by_router[it->second];
    return singletons[addr];
  };

  for (const LinkInference& link : links) {
    Roles& near = roles_for(link.obs.near_addr);
    const bool is_public = link.obs.kind == PeeringKind::Public;
    if (is_public) {
      near.public_peering = true;
      near.ixps.insert(link.obs.ixp.value);
      // The far side of a public peering is that router's IXP port.
      Roles& far = roles_for(link.obs.far_addr);
      far.public_peering = true;
      far.ixps.insert(link.obs.ixp.value);
    } else {
      near.private_peering = true;
      roles_for(link.obs.far_addr).private_peering = true;
    }
  }

  RouterStats stats;
  auto account = [&](const Roles& roles) {
    ++stats.routers;
    stats.multi_role += roles.public_peering && roles.private_peering;
    stats.multi_ixp += roles.ixps.size() >= 2;
  };
  for (const auto& [set, roles] : by_router) account(roles);
  for (const auto& [addr, roles] : singletons) account(roles);
  return stats;
}

}  // namespace cfs
