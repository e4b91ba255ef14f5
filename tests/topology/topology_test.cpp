#include "topology/topology.h"

#include <gtest/gtest.h>

namespace cfs {
namespace {

// Hand-built micro-topology: one metro, two facilities, two ASes with one
// router each, joined by a private cross-connect.
struct Fixture {
  Topology topo;
  MetroId metro;
  FacilityId f1, f2;
  Asn a{100}, b{200};
  RouterId ra, rb;

  Fixture() {
    metro = topo.add_metro(
        Metro{{}, "Testville", "TS", Region::Europe, {50.0, 8.0}});
    const OperatorId op =
        topo.add_operator(FacilityOperator{{}, "TestColo", true});
    f1 = topo.add_facility(
        Facility{{}, "TestColo 1", op, metro, {50.0, 8.0}, "Testville"});
    f2 = topo.add_facility(
        Facility{{}, "TestColo 2", op, metro, {50.01, 8.01}, "Testville"});

    AutonomousSystem as_a;
    as_a.asn = a;
    as_a.name = "AS-A";
    as_a.prefixes = {*Prefix::parse("20.0.0.0/16")};
    as_a.facilities = {f1};
    topo.add_as(as_a);
    topo.announce(as_a.prefixes[0], a);

    AutonomousSystem as_b;
    as_b.asn = b;
    as_b.name = "AS-B";
    as_b.prefixes = {*Prefix::parse("20.1.0.0/16")};
    as_b.facilities = {f1, f2};
    topo.add_as(as_b);
    topo.announce(as_b.prefixes[0], b);

    Router router_a;
    router_a.owner = a;
    router_a.facility = f1;
    router_a.local_address = *Ipv4::parse("20.0.0.1");
    ra = topo.add_router(router_a);
    topo.add_interface(Interface{router_a.local_address, ra, LinkId::invalid(),
                                 InterfaceRole::Local});

    Router router_b;
    router_b.owner = b;
    router_b.facility = f1;
    router_b.local_address = *Ipv4::parse("20.1.0.1");
    rb = topo.add_router(router_b);
    topo.add_interface(Interface{router_b.local_address, rb, LinkId::invalid(),
                                 InterfaceRole::Local});
  }

  LinkId add_xconnect() {
    Link link;
    link.type = LinkType::PrivateCrossConnect;
    link.rel = BusinessRel::PeerPeer;
    link.a = LinkEnd{ra, *Ipv4::parse("20.0.0.5")};
    link.b = LinkEnd{rb, *Ipv4::parse("20.0.0.6")};
    link.facility = f1;
    const LinkId id = topo.add_link(link);
    topo.add_interface(Interface{*Ipv4::parse("20.0.0.5"), ra, id,
                                 InterfaceRole::PrivatePtp});
    topo.add_interface(Interface{*Ipv4::parse("20.0.0.6"), rb, id,
                                 InterfaceRole::PrivatePtp});
    return id;
  }
};

TEST(Topology, IdsAreDense) {
  Fixture fx;
  EXPECT_EQ(fx.f1.value, 0u);
  EXPECT_EQ(fx.f2.value, 1u);
  EXPECT_EQ(fx.topo.facilities().size(), 2u);
}

TEST(Topology, DuplicateAsnRejected) {
  Fixture fx;
  AutonomousSystem dup;
  dup.asn = fx.a;
  EXPECT_THROW(fx.topo.add_as(dup), std::invalid_argument);
}

TEST(Topology, InvalidAsnRejected) {
  Topology topo;
  AutonomousSystem bad;  // asn 0
  EXPECT_THROW(topo.add_as(bad), std::invalid_argument);
}

TEST(Topology, DuplicateInterfaceRejected) {
  Fixture fx;
  EXPECT_THROW(
      fx.topo.add_interface(Interface{*Ipv4::parse("20.0.0.1"), fx.ra,
                                      LinkId::invalid(), InterfaceRole::Local}),
      std::invalid_argument);
}

TEST(Topology, FindInterface) {
  Fixture fx;
  const Interface* iface = fx.topo.find_interface(*Ipv4::parse("20.0.0.1"));
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->router, fx.ra);
  EXPECT_EQ(fx.topo.find_interface(*Ipv4::parse("9.9.9.9")), nullptr);
}

TEST(Topology, LinksOfTracksBothEndpoints) {
  Fixture fx;
  const LinkId id = fx.add_xconnect();
  ASSERT_EQ(fx.topo.links_of(fx.ra).size(), 1u);
  ASSERT_EQ(fx.topo.links_of(fx.rb).size(), 1u);
  EXPECT_EQ(fx.topo.links_of(fx.ra)[0], id);
}

TEST(Topology, OriginLookupUsesLongestMatch) {
  Fixture fx;
  EXPECT_EQ(fx.topo.origin_of(*Ipv4::parse("20.0.5.5")), fx.a);
  EXPECT_EQ(fx.topo.origin_of(*Ipv4::parse("20.1.5.5")), fx.b);
  EXPECT_FALSE(fx.topo.origin_of(*Ipv4::parse("30.0.0.1")).has_value());
}

TEST(Topology, RelationshipGraph) {
  Fixture fx;
  fx.topo.add_relationship(fx.a, fx.b);  // a customer of b
  EXPECT_TRUE(fx.topo.is_provider_of(fx.b, fx.a));
  EXPECT_FALSE(fx.topo.is_provider_of(fx.a, fx.b));
  EXPECT_FALSE(fx.topo.is_peer_of(fx.a, fx.b));
  fx.topo.add_peering(fx.a, fx.b);
  EXPECT_TRUE(fx.topo.is_peer_of(fx.a, fx.b));
  EXPECT_TRUE(fx.topo.is_peer_of(fx.b, fx.a));
}

TEST(Topology, RelationsOfUnknownAsnIsEmpty) {
  Topology topo;
  const auto& rel = topo.relations(Asn(42));
  EXPECT_TRUE(rel.providers.empty());
  EXPECT_TRUE(rel.customers.empty());
  EXPECT_TRUE(rel.peers.empty());
}

TEST(Topology, RoutersOf) {
  Fixture fx;
  EXPECT_EQ(fx.topo.routers_of(fx.a).size(), 1u);
  EXPECT_TRUE(fx.topo.routers_of(Asn(42)).empty());

  // A router added after another AS's keeps its owner's list in id order.
  Router late;
  late.owner = fx.a;
  late.facility = fx.f1;
  const RouterId rl = fx.topo.add_router(late);
  const auto of_a = fx.topo.routers_of(fx.a);
  ASSERT_EQ(of_a.size(), 2u);
  EXPECT_EQ(of_a[0], fx.ra);
  EXPECT_EQ(of_a[1], rl);
  EXPECT_EQ(fx.topo.routers_of(fx.b).size(), 1u);
}

TEST(Topology, ValidatePassesOnConsistentTopology) {
  Fixture fx;
  fx.add_xconnect();
  EXPECT_NO_THROW(fx.topo.validate());
}

TEST(Topology, ValidateCatchesRouterAtForeignFacility) {
  Fixture fx;
  Router rogue;
  rogue.owner = fx.a;
  rogue.facility = fx.f2;  // AS A is not present at f2
  rogue.local_address = *Ipv4::parse("20.0.0.99");
  const RouterId id = fx.topo.add_router(rogue);
  fx.topo.add_interface(Interface{rogue.local_address, id, LinkId::invalid(),
                                  InterfaceRole::Local});
  EXPECT_THROW(fx.topo.validate(), std::logic_error);
}

TEST(Topology, ValidateCatchesCrossConnectWithinOneAs) {
  Fixture fx;
  Router second;
  second.owner = fx.b;
  second.facility = fx.f2;
  second.local_address = *Ipv4::parse("20.1.0.2");
  const RouterId rb2 = fx.topo.add_router(second);
  fx.topo.add_interface(Interface{second.local_address, rb2, LinkId::invalid(),
                                  InterfaceRole::Local});

  Link link;
  link.type = LinkType::PrivateCrossConnect;
  link.rel = BusinessRel::PeerPeer;
  link.a = LinkEnd{fx.rb, *Ipv4::parse("20.1.0.5")};
  link.b = LinkEnd{rb2, *Ipv4::parse("20.1.0.6")};
  link.facility = fx.f1;
  const LinkId id = fx.topo.add_link(link);
  fx.topo.add_interface(
      Interface{*Ipv4::parse("20.1.0.5"), fx.rb, id, InterfaceRole::PrivatePtp});
  fx.topo.add_interface(
      Interface{*Ipv4::parse("20.1.0.6"), rb2, id, InterfaceRole::PrivatePtp});
  EXPECT_THROW(fx.topo.validate(), std::logic_error);
}

TEST(Topology, ValidateCatchesUnregisteredLinkAddress) {
  Fixture fx;
  Link link;
  link.type = LinkType::PrivateCrossConnect;
  link.rel = BusinessRel::PeerPeer;
  link.a = LinkEnd{fx.ra, *Ipv4::parse("20.0.0.50")};  // never registered
  link.b = LinkEnd{fx.rb, *Ipv4::parse("20.0.0.51")};
  link.facility = fx.f1;
  fx.topo.add_link(link);
  EXPECT_THROW(fx.topo.validate(), std::logic_error);
}

TEST(Topology, OutOfRangeAccessorsThrow) {
  Topology topo;
  EXPECT_THROW(topo.metro(MetroId(0)), std::out_of_range);
  EXPECT_THROW(topo.facility(FacilityId(3)), std::out_of_range);
  EXPECT_THROW(topo.router(RouterId(1)), std::out_of_range);
  EXPECT_THROW(topo.as_of(Asn(77)), std::out_of_range);
}

TEST(Topology, AddLinkRejectsUnknownRouters) {
  Topology topo;
  Link link;
  link.a = LinkEnd{RouterId(0), Ipv4(1)};
  link.b = LinkEnd{RouterId(1), Ipv4(2)};
  EXPECT_THROW(topo.add_link(link), std::invalid_argument);
}

}  // namespace
}  // namespace cfs
