#include "core/validation.h"

#include <algorithm>
#include <unordered_map>

namespace cfs {

std::string_view validation_source_name(ValidationSource source) {
  switch (source) {
    case ValidationSource::DirectFeedback: return "direct feedback";
    case ValidationSource::BgpCommunities: return "BGP communities";
    case ValidationSource::DnsRecords: return "DNS hints";
    case ValidationSource::IxpWebsites: return "IXP websites";
  }
  return "?";
}

std::string_view validation_link_type_name(ValidationLinkType type) {
  switch (type) {
    case ValidationLinkType::CrossConnect: return "cross-connect";
    case ValidationLinkType::PublicLocal: return "public peering";
    case ValidationLinkType::Remote: return "remote";
    case ValidationLinkType::Tethering: return "tethering";
  }
  return "?";
}

ValidationHarness::ValidationHarness(
    const Topology& topo, const CommunityRegistry& communities,
    const LookingGlassDirectory& lgs, const DnsNames& dns,
    const DropParser& drop, const IxpWebsiteSource& ixp_sites, Config config)
    : topo_(topo),
      communities_(communities),
      lgs_(lgs),
      dns_(dns),
      drop_(drop),
      ixp_sites_(ixp_sites),
      config_(std::move(config)) {}

std::optional<FacilityId> ValidationHarness::true_facility(Ipv4 addr) const {
  const Interface* iface = topo_.find_interface(addr);
  if (iface == nullptr) return std::nullopt;
  return topo_.router(iface->router).facility;
}

InterconnectionType ValidationHarness::true_link_type(
    const PeeringObservation& obs) const {
  if (obs.kind == PeeringKind::Public) {
    const auto ixp_id = topo_.ixp_of_address(obs.far_addr);
    if (!ixp_id) return InterconnectionType::Unknown;
    const Ixp& ixp = topo_.ixp(*ixp_id);
    // Far port: the LAN address directly identifies it.
    const IxpPort* far_port = nullptr;
    for (const auto& port : ixp.ports)
      if (port.lan_address == obs.far_addr) far_port = &port;
    // Near port: the near AS's port terminating on the near router.
    const Interface* near_iface = topo_.find_interface(obs.near_addr);
    const IxpPort* near_port =
        near_iface ? ixp.port_of(topo_.router(near_iface->router).owner,
                                 near_iface->router)
                   : nullptr;
    const bool remote = (far_port != nullptr && far_port->remote) ||
                        (near_port != nullptr && near_port->remote);
    return remote ? InterconnectionType::PublicRemote
                  : InterconnectionType::PublicLocal;
  }

  const Interface* iface = topo_.find_interface(obs.near_addr);
  if (iface == nullptr || !iface->link.valid())
    return InterconnectionType::Unknown;
  const Link& link = topo_.link(iface->link);
  switch (link.type) {
    case LinkType::Tethering:
      return InterconnectionType::PrivateTethering;
    case LinkType::PrivateCrossConnect: {
      const FacilityId fa = topo_.router(link.a.router).facility;
      const FacilityId fb = topo_.router(link.b.router).facility;
      // Interconnected facilities of one metro still count as a
      // cross-connect (Section 2: operators link their metro campuses);
      // only a circuit leaving the metro is a remote private interconnect.
      if (fa == fb || topo_.metro_of(fa) == topo_.metro_of(fb))
        return InterconnectionType::PrivateCrossConnect;
      return InterconnectionType::PrivateRemote;
    }
    default:
      return InterconnectionType::Unknown;
  }
}

ValidationLinkType ValidationHarness::bucket(InterconnectionType type) {
  switch (type) {
    case InterconnectionType::PrivateCrossConnect:
      return ValidationLinkType::CrossConnect;
    case InterconnectionType::PublicLocal:
      return ValidationLinkType::PublicLocal;
    case InterconnectionType::PublicRemote:
    case InterconnectionType::PrivateRemote:
      return ValidationLinkType::Remote;
    case InterconnectionType::PrivateTethering:
      return ValidationLinkType::Tethering;
    case InterconnectionType::Unknown:
      return ValidationLinkType::PublicLocal;  // not reached in practice
  }
  return ValidationLinkType::PublicLocal;
}

void ValidationHarness::score(SourceAccuracy& acc, FacilityId inferred,
                              FacilityId reference) const {
  ++acc.total;
  if (inferred == reference) {
    ++acc.correct;
  } else if (topo_.metro_of(inferred) == topo_.metro_of(reference)) {
    ++acc.city_correct;
  }
}

ValidationHarness::Breakdown ValidationHarness::validate(
    const CfsReport& report) const {
  Breakdown out;

  // BGP-capable looking glasses per AS (coverage condition for the
  // communities source).
  std::unordered_map<std::uint32_t, bool> has_bgp_lg;
  for (const auto& entry : lgs_.entries())
    if (entry.supports_bgp) has_bgp_lg[entry.owner.value] = true;

  // Member-port tables of publishing IXPs, indexed by LAN address.
  std::unordered_map<Ipv4, IxpMemberPortRecord> published_ports;
  for (const auto& ixp : topo_.ixps()) {
    const auto table = ixp_sites_.member_table(ixp.id);
    if (!table) continue;
    for (const auto& record : *table)
      published_ports.emplace(record.lan_address, record);
  }

  const auto coop = config_.cooperating_operators;
  auto cooperating = [&](Asn asn) {
    return std::find(coop.begin(), coop.end(), asn) != coop.end();
  };

  for (const LinkInference& link : report.links) {
    const ValidationLinkType type_bucket = bucket(link.type);
    const auto* near = report.find(link.obs.near_addr);

    // --- direct feedback: operators confirm their own interfaces ---
    if (near != nullptr && near->resolved() && cooperating(link.obs.near_as)) {
      if (const auto truth = true_facility(link.obs.near_addr))
        score(out[{ValidationSource::DirectFeedback, type_bucket}],
              near->facility(), *truth);
    }

    // --- BGP communities: ingress tags of adopting transit networks ---
    if (near != nullptr && near->resolved() &&
        communities_.tags_ingress(link.obs.near_as) &&
        has_bgp_lg.contains(link.obs.near_as.value)) {
      if (const auto truth = true_facility(link.obs.near_addr)) {
        // The route's ingress community is generated at the true border
        // facility and decoded through the published dictionary.
        if (const auto tag = communities_.tag_for(link.obs.near_as, *truth)) {
          if (const auto decoded = communities_.decode(*tag))
            score(out[{ValidationSource::BgpCommunities, type_bucket}],
                  near->facility(), *decoded);
        }
      }
    }

    // --- DNS records: facility-encoding hostnames, current conventions ---
    if (near != nullptr && near->resolved()) {
      const auto* as = topo_.find_as(link.obs.near_as);
      if (as != nullptr && as->type != AsType::Content &&
          as->dns == DnsConvention::FacilityCode) {
        const auto hint = drop_.geolocate(link.obs.near_addr);
        if (hint.level == DnsGeoHint::Level::Facility)
          score(out[{ValidationSource::DnsRecords, type_bucket}],
                near->facility(), hint.facility);
      }
    }

    // --- IXP websites: published member-port tables ---
    if (link.obs.kind == PeeringKind::Public && link.far_facility) {
      const auto it = published_ports.find(link.obs.far_addr);
      if (it != published_ports.end())
        score(out[{ValidationSource::IxpWebsites, type_bucket}],
              *link.far_facility, it->second.facility);
    }
  }
  return out;
}

SourceAccuracy ValidationHarness::oracle_interface_accuracy(
    const CfsReport& report) const {
  SourceAccuracy acc;
  for (const auto& [addr, inf] : report.interfaces) {
    if (!inf.resolved()) continue;
    const auto truth = true_facility(addr);
    if (!truth) continue;
    score(acc, inf.facility(), *truth);
  }
  return acc;
}

AliasAccuracy ValidationHarness::oracle_alias_accuracy(
    const CfsReport& report) const {
  // IXP LAN addresses are interfaces of the member's port router too.
  const auto router_of = [this](Ipv4 addr) -> const Router* {
    const Interface* iface = topo_.find_interface(addr);
    return iface == nullptr ? nullptr : &topo_.router(iface->router);
  };
  const auto pairs = [](std::size_t n) { return n * (n - 1) / 2; };

  AliasAccuracy acc;
  std::unordered_map<std::uint32_t, std::size_t> targets_per_router;
  for (const std::vector<Ipv4>& set : report.aliases.sets) {
    std::unordered_map<std::uint32_t, std::size_t> per_router;
    std::size_t known = 0;
    for (const Ipv4 addr : set) {
      const Router* router = router_of(addr);
      if (router == nullptr) continue;
      ++known;
      ++per_router[router->id.value];
      ++targets_per_router[router->id.value];
      if (router->ipid == IpIdBehaviour::Random) ++acc.random_in_sets;
    }
    std::size_t same = 0;
    for (const auto& [router, n] : per_router) same += pairs(n);
    acc.true_pairs += same;
    acc.false_pairs += pairs(known) - same;
    acc.wrong_sets += per_router.size() > 1 ? 1 : 0;
    acc.multi_sets += set.size() >= 2 ? 1 : 0;
  }
  for (const Ipv4 addr : report.aliases.unresolved) {
    const Router* router = router_of(addr);
    if (router == nullptr) continue;
    ++targets_per_router[router->id.value];
    if (router->ipid == IpIdBehaviour::Random) ++acc.random_unresolved;
  }
  std::size_t router_pairs = 0;
  for (const auto& [router, n] : targets_per_router) router_pairs += pairs(n);
  acc.missed_pairs = router_pairs - acc.true_pairs;
  return acc;
}

std::map<std::pair<InterconnectionType, InterconnectionType>, std::size_t>
ValidationHarness::link_type_confusion(const CfsReport& report) const {
  std::map<std::pair<InterconnectionType, InterconnectionType>, std::size_t>
      out;
  for (const LinkInference& link : report.links) {
    const InterconnectionType truth = true_link_type(link.obs);
    if (truth == InterconnectionType::Unknown) continue;
    ++out[{link.type, truth}];
  }
  return out;
}

}  // namespace cfs
