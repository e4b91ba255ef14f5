#include "topology/topology.h"

#include <algorithm>
#include <string>

namespace cfs {

AsRelations Topology::empty_relations_;

namespace {

template <class T>
const T& checked(const std::vector<T>& v, std::uint32_t index,
                 const char* what) {
  if (index >= v.size())
    throw std::out_of_range(std::string("Topology: bad ") + what + " id " +
                            std::to_string(index));
  return v[index];
}

}  // namespace

MetroId Topology::add_metro(Metro metro) {
  metro.id = MetroId(static_cast<std::uint32_t>(metros_.size()));
  metros_.push_back(std::move(metro));
  return metros_.back().id;
}

OperatorId Topology::add_operator(FacilityOperator op) {
  op.id = OperatorId(static_cast<std::uint32_t>(operators_.size()));
  operators_.push_back(std::move(op));
  return operators_.back().id;
}

FacilityId Topology::add_facility(Facility facility) {
  facility.id = FacilityId(static_cast<std::uint32_t>(facilities_.size()));
  facilities_.push_back(std::move(facility));
  return facilities_.back().id;
}

IxpId Topology::add_ixp(Ixp ixp) {
  ixp.id = IxpId(static_cast<std::uint32_t>(ixps_.size()));
  ixp_lans_.insert(ixp.peering_lan, ixp.id);
  ixps_.push_back(std::move(ixp));
  return ixps_.back().id;
}

void Topology::add_as(AutonomousSystem as) {
  if (!as.asn.valid()) throw std::invalid_argument("add_as: invalid ASN");
  if (asn_index_.contains(as.asn.value))
    throw std::invalid_argument("add_as: duplicate ASN " +
                                std::to_string(as.asn.value));
  // Facility lists feed std::set_intersection downstream (NOC websites,
  // common_facilities, CFS constraints): enforce the sorted-set invariant
  // at the door instead of trusting every caller.
  std::sort(as.facilities.begin(), as.facilities.end());
  as.facilities.erase(
      std::unique(as.facilities.begin(), as.facilities.end()),
      as.facilities.end());
  asn_index_.emplace(as.asn.value, ases_.size());
  ases_.push_back(std::move(as));
}

RouterId Topology::add_router(Router router) {
  router.id = RouterId(static_cast<std::uint32_t>(routers_.size()));
  as_routers_[router.owner].push_back(router.id);
  routers_.push_back(std::move(router));
  router_links_.emplace_back();
  return routers_.back().id;
}

LinkId Topology::add_link(Link link) {
  link.id = LinkId(static_cast<std::uint32_t>(links_.size()));
  if (link.a.router.value >= routers_.size() ||
      link.b.router.value >= routers_.size())
    throw std::invalid_argument("add_link: unknown router endpoint");
  links_.push_back(link);
  router_links_[link.a.router.value].push_back(link.id);
  router_links_[link.b.router.value].push_back(link.id);
  return links_.back().id;
}

void Topology::add_interface(Interface iface) {
  if (iface.router.value >= routers_.size())
    throw std::invalid_argument("add_interface: unknown router");
  const auto [it, inserted] = interfaces_.emplace(iface.address, iface);
  if (!inserted)
    throw std::invalid_argument("add_interface: duplicate address " +
                                iface.address.to_string());
  routers_[iface.router.value].interfaces.push_back(iface.address);
}

void Topology::add_relationship(Asn customer, Asn provider) {
  relations_[customer].providers.push_back(provider);
  relations_[provider].customers.push_back(customer);
}

void Topology::add_peering(Asn a, Asn b) {
  relations_[a].peers.push_back(b);
  relations_[b].peers.push_back(a);
}

void Topology::announce(const Prefix& prefix, Asn origin) {
  announcements_.insert(prefix, origin);
}

Ixp& Topology::mutable_ixp(IxpId id) {
  checked(ixps_, id.value, "ixp");
  return ixps_[id.value];
}

AutonomousSystem& Topology::mutable_as(Asn asn) {
  const auto it = asn_index_.find(asn.value);
  if (it == asn_index_.end())
    throw std::out_of_range("mutable_as: unknown ASN " +
                            std::to_string(asn.value));
  return ases_[it->second];
}

Router& Topology::mutable_router(RouterId id) {
  checked(routers_, id.value, "router");
  return routers_[id.value];
}

Link& Topology::mutable_link(LinkId id) {
  checked(links_, id.value, "link");
  return links_[id.value];
}

const Metro& Topology::metro(MetroId id) const {
  return checked(metros_, id.value, "metro");
}
const FacilityOperator& Topology::oper(OperatorId id) const {
  return checked(operators_, id.value, "operator");
}
const Facility& Topology::facility(FacilityId id) const {
  return checked(facilities_, id.value, "facility");
}
const Ixp& Topology::ixp(IxpId id) const {
  return checked(ixps_, id.value, "ixp");
}
const Router& Topology::router(RouterId id) const {
  return checked(routers_, id.value, "router");
}
const Link& Topology::link(LinkId id) const {
  return checked(links_, id.value, "link");
}

const AutonomousSystem* Topology::find_as(Asn asn) const {
  const auto it = asn_index_.find(asn.value);
  return it == asn_index_.end() ? nullptr : &ases_[it->second];
}

const AutonomousSystem& Topology::as_of(Asn asn) const {
  const auto* as = find_as(asn);
  if (as == nullptr)
    throw std::out_of_range("as_of: unknown ASN " + std::to_string(asn.value));
  return *as;
}

const Interface* Topology::find_interface(Ipv4 addr) const {
  const auto it = interfaces_.find(addr);
  return it == interfaces_.end() ? nullptr : &it->second;
}

std::span<const LinkId> Topology::links_of(RouterId router) const {
  checked(routers_, router.value, "router");
  return router_links_[router.value];
}

std::span<const RouterId> Topology::routers_of(Asn asn) const {
  const auto it = as_routers_.find(asn);
  if (it == as_routers_.end()) return {};
  return it->second;
}

std::optional<Asn> Topology::origin_of(Ipv4 addr) const {
  const auto hit = announcements_.lookup(addr);
  if (!hit) return std::nullopt;
  return hit->second;
}

std::optional<IxpId> Topology::ixp_of_address(Ipv4 addr) const {
  const auto hit = ixp_lans_.lookup(addr);
  if (!hit) return std::nullopt;
  return hit->second;
}

const AsRelations& Topology::relations(Asn asn) const {
  const auto it = relations_.find(asn);
  return it == relations_.end() ? empty_relations_ : it->second;
}

bool Topology::is_provider_of(Asn provider, Asn customer) const {
  const auto& rel = relations(customer);
  return std::find(rel.providers.begin(), rel.providers.end(), provider) !=
         rel.providers.end();
}

bool Topology::is_peer_of(Asn a, Asn b) const {
  const auto& rel = relations(a);
  return std::find(rel.peers.begin(), rel.peers.end(), b) != rel.peers.end();
}

MetroId Topology::metro_of(FacilityId fac) const {
  return facility(fac).metro;
}

void Topology::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::logic_error("Topology::validate: " + msg);
  };

  for (const auto& fac : facilities_) {
    if (fac.metro.value >= metros_.size()) fail("facility with bad metro");
    if (fac.oper.value >= operators_.size()) fail("facility with bad operator");
  }

  for (const auto& ixp : ixps_) {
    if (ixp.metro.value >= metros_.size()) fail("ixp with bad metro");
    if (ixp.switches.empty()) fail("ixp without switches");
    if (ixp.switches[0].kind != IxpSwitch::Kind::Core)
      fail("ixp switch 0 must be the core");
    for (const auto& sw : ixp.switches) {
      if (sw.parent >= ixp.switches.size()) fail("switch with bad parent");
      if (sw.kind == IxpSwitch::Kind::Access &&
          sw.facility.value >= facilities_.size())
        fail("access switch with bad facility");
      if (sw.kind == IxpSwitch::Kind::Access &&
          ixp.switches[sw.parent].kind == IxpSwitch::Kind::Access)
        fail("access switch parented to access switch");
    }
    for (const auto& port : ixp.ports) {
      if (port.router.value >= routers_.size()) fail("port with bad router");
      if (!ixp.peering_lan.contains(port.lan_address))
        fail("port address outside peering LAN");
      if (port.access_switch >= ixp.switches.size() ||
          ixp.switches[port.access_switch].kind != IxpSwitch::Kind::Access)
        fail("port on non-access switch");
      if (!asn_index_.contains(port.member.value)) fail("port of unknown AS");
      const Router& r = routers_[port.router.value];
      if (r.owner != port.member) fail("port router owned by a different AS");
      if (!port.remote) {
        // A local port implies the member's router sits inside a facility
        // hosting the access switch it connects to.
        if (r.facility != ixp.switches[port.access_switch].facility)
          fail("local port router not in the access-switch facility");
      }
    }
  }

  for (const auto& as : ases_) {
    for (const auto fac : as.facilities)
      if (fac.value >= facilities_.size()) fail("as present at bad facility");
    for (const auto ix : as.ixps)
      if (ix.value >= ixps_.size()) fail("as member of bad ixp");
  }

  for (const auto& r : routers_) {
    if (!asn_index_.contains(r.owner.value)) fail("router with unknown owner");
    if (r.facility.value >= facilities_.size())
      fail("router with bad facility");
    const auto& as = ases_[asn_index_.at(r.owner.value)];
    if (std::find(as.facilities.begin(), as.facilities.end(), r.facility) ==
        as.facilities.end())
      fail("router at a facility its AS is not present at");
    for (const Ipv4 addr : r.interfaces) {
      const auto it = interfaces_.find(addr);
      if (it == interfaces_.end()) fail("router interface not registered");
      if (it->second.router != r.id) fail("interface registered to other router");
    }
  }

  for (const auto& l : links_) {
    if (l.a.router.value >= routers_.size() ||
        l.b.router.value >= routers_.size())
      fail("link with bad router");
    if (l.latency_ms < 0.0) fail("negative link latency");
    const Router& ra = routers_[l.a.router.value];
    const Router& rb = routers_[l.b.router.value];
    switch (l.type) {
      case LinkType::Backbone:
        if (ra.owner != rb.owner) fail("backbone link across ASes");
        if (l.rel != BusinessRel::Intra) fail("backbone link with ext rel");
        break;
      case LinkType::PrivateCrossConnect:
        if (ra.owner == rb.owner) fail("cross-connect within one AS");
        if (l.facility.value >= facilities_.size())
          fail("cross-connect without facility");
        break;
      case LinkType::PublicPeering:
      case LinkType::Tethering:
        if (l.ixp.value >= ixps_.size()) fail("ixp link without ixp");
        if (ra.owner == rb.owner) fail("ixp link within one AS");
        break;
    }
    for (const LinkEnd* end : {&l.a, &l.b}) {
      const auto it = interfaces_.find(end->address);
      if (it == interfaces_.end()) fail("link end address not registered");
      if (it->second.router != end->router)
        fail("link end address on wrong router");
    }
  }
}

}  // namespace cfs
