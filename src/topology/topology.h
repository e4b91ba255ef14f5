// Ground-truth topology container.
//
// Owns every entity and the cross-indexes the rest of the system queries:
// ASN lookup, interface registry, per-router link adjacency, ground-truth
// prefix announcements, and the AS business-relationship graph. The data
// sources in src/data derive their (noisy) views from this object; the
// inference code in src/core never touches it except through those views
// and through the validation oracle.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/prefix_trie.h"
#include "topology/entities.h"
#include "topology/ixp.h"

namespace cfs {

struct AsRelations {
  std::vector<Asn> providers;
  std::vector<Asn> customers;
  std::vector<Asn> peers;
};

class Topology {
 public:
  // ---- construction (used by the generator and by tests) ----
  MetroId add_metro(Metro metro);
  OperatorId add_operator(FacilityOperator op);
  FacilityId add_facility(Facility facility);
  IxpId add_ixp(Ixp ixp);
  void add_as(AutonomousSystem as);
  RouterId add_router(Router router);
  LinkId add_link(Link link);
  void add_interface(Interface iface);
  void add_relationship(Asn customer, Asn provider);  // customer->provider
  void add_peering(Asn a, Asn b);
  void announce(const Prefix& prefix, Asn origin);

  [[nodiscard]] Ixp& mutable_ixp(IxpId id);
  [[nodiscard]] AutonomousSystem& mutable_as(Asn asn);
  [[nodiscard]] Router& mutable_router(RouterId id);
  [[nodiscard]] Link& mutable_link(LinkId id);

  // ---- entity access ----
  [[nodiscard]] const Metro& metro(MetroId id) const;
  [[nodiscard]] const FacilityOperator& oper(OperatorId id) const;
  [[nodiscard]] const Facility& facility(FacilityId id) const;
  [[nodiscard]] const Ixp& ixp(IxpId id) const;
  [[nodiscard]] const Router& router(RouterId id) const;
  [[nodiscard]] const Link& link(LinkId id) const;

  [[nodiscard]] std::span<const Metro> metros() const { return metros_; }
  [[nodiscard]] std::span<const FacilityOperator> operators() const {
    return operators_;
  }
  [[nodiscard]] std::span<const Facility> facilities() const {
    return facilities_;
  }
  [[nodiscard]] std::span<const Ixp> ixps() const { return ixps_; }
  [[nodiscard]] std::span<const AutonomousSystem> ases() const {
    return ases_;
  }
  [[nodiscard]] std::span<const Router> routers() const { return routers_; }
  [[nodiscard]] std::span<const Link> links() const { return links_; }

  [[nodiscard]] const AutonomousSystem* find_as(Asn asn) const;
  [[nodiscard]] const AutonomousSystem& as_of(Asn asn) const;
  [[nodiscard]] bool has_as(Asn asn) const { return find_as(asn) != nullptr; }

  // ---- cross indexes ----
  [[nodiscard]] const Interface* find_interface(Ipv4 addr) const;
  [[nodiscard]] std::span<const LinkId> links_of(RouterId router) const;
  // Routers owned by `asn`, in ascending id order (empty for an unknown
  // AS). Filled by add_router, so the span is valid until the next
  // add_router; a router's owner must not change after it is added.
  [[nodiscard]] std::span<const RouterId> routers_of(Asn asn) const;

  // Ground-truth origin of an address per BGP announcements (longest match).
  [[nodiscard]] std::optional<Asn> origin_of(Ipv4 addr) const;
  [[nodiscard]] const PrefixTrie<Asn>& announcements() const {
    return announcements_;
  }

  // IXP owning an address on one of the peering LANs, if any.
  [[nodiscard]] std::optional<IxpId> ixp_of_address(Ipv4 addr) const;

  [[nodiscard]] const AsRelations& relations(Asn asn) const;
  [[nodiscard]] bool is_provider_of(Asn provider, Asn customer) const;
  [[nodiscard]] bool is_peer_of(Asn a, Asn b) const;

  // Ground-truth metro of a facility (convenience).
  [[nodiscard]] MetroId metro_of(FacilityId facility) const;

  // Verifies referential integrity of the whole structure; throws
  // std::logic_error with a description on the first violation.
  void validate() const;

 private:
  std::vector<Metro> metros_;
  std::vector<FacilityOperator> operators_;
  std::vector<Facility> facilities_;
  std::vector<Ixp> ixps_;
  std::vector<AutonomousSystem> ases_;
  std::vector<Router> routers_;
  std::vector<Link> links_;

  std::unordered_map<std::uint32_t, std::size_t> asn_index_;
  std::unordered_map<Ipv4, Interface> interfaces_;
  std::vector<std::vector<LinkId>> router_links_;
  std::unordered_map<Asn, std::vector<RouterId>> as_routers_;
  std::unordered_map<Asn, AsRelations> relations_;
  PrefixTrie<Asn> announcements_;
  PrefixTrie<IxpId> ixp_lans_;

  static AsRelations empty_relations_;
};

}  // namespace cfs
