#include "core/validation.h"

#include <gtest/gtest.h>

#include "support/mini_net.h"

namespace cfs {
namespace {

using testing::MiniNet;

// MiniNet world with all four engineering options and the full validation
// apparatus wired by hand.
struct ValidationFixture {
  MiniNet net;
  Asn a, c, e, r;
  LinkId ca_xconnect, ae_public, ar_public, ce_tether, remote_private;

  std::unique_ptr<CommunityRegistry> communities;
  std::unique_ptr<LookingGlassDirectory> lgs;
  std::unique_ptr<DnsNames> dns;
  std::unique_ptr<DropParser> drop;
  std::unique_ptr<IxpWebsiteSource> ixp_sites;
  std::unique_ptr<ValidationHarness> harness;

  ValidationFixture() {
    a = net.add_as(1000, AsType::Transit, {1, 2, 4});
    c = net.add_as(5000, AsType::Content, {2, 3});
    e = net.add_as(10000, AsType::Eyeball, {3});
    r = net.add_as(10001, AsType::Eyeball, {5});

    ca_xconnect = net.xconnect(c, a, 2, BusinessRel::CustomerProvider);
    net.join_ixp(a, 1);
    net.join_ixp(e, 3);
    net.join_ixp(c, 3);
    net.join_ixp_remote(r, 5, a);
    ae_public = net.public_peer(a, e, BusinessRel::PeerPeer);
    ar_public = net.public_peer(a, r, BusinessRel::CustomerProvider);
    ce_tether = net.tether(c, e, BusinessRel::PeerPeer);
    // Long-haul private circuit: A's London router to C's Frankfurt one.
    remote_private = make_remote_private();
    net.topo.validate();

    communities = std::make_unique<CommunityRegistry>(net.topo, 1.0, 1);
    lgs = std::make_unique<LookingGlassDirectory>(
        net.topo, LookingGlassDirectory::Config{.host_probability = 1.0,
                                                .bgp_support_probability = 1.0,
                                                .cooldown_s = 60,
                                                .seed = 1});
    DnsConfig dcfg;
    dcfg.record_missing = 0.0;
    dcfg.stale_wrong = 0.0;
    dcfg.documented_operator_fraction = 1.0;
    dns = std::make_unique<DnsNames>(net.topo, dcfg);
    drop = std::make_unique<DropParser>(*dns);
    WebsiteConfig wcfg;
    wcfg.ixp_facility_list = 1.0;
    wcfg.ixp_member_table = 1.0;
    ixp_sites = std::make_unique<IxpWebsiteSource>(net.topo, wcfg);

    ValidationHarness::Config vcfg;
    vcfg.cooperating_operators = {c};
    harness = std::make_unique<ValidationHarness>(
        net.topo, *communities, *lgs, *dns, *drop, *ixp_sites, vcfg);
  }

  LinkId make_remote_private() {
    const RouterId ra = net.router(a, 4);   // London
    const RouterId rc = net.router(c, 2);   // Frankfurt
    const Prefix ptp = net.take_ptp(a);
    Link link;
    link.type = LinkType::PrivateCrossConnect;
    link.rel = BusinessRel::CustomerProvider;
    link.a = LinkEnd{rc, ptp.at(1)};
    link.b = LinkEnd{ra, ptp.at(2)};
    link.facility = net.fac[4];
    link.latency_ms = 8.0;
    const LinkId id = net.topo.add_link(link);
    net.topo.add_interface(
        Interface{ptp.at(1), rc, id, InterfaceRole::PrivatePtp});
    net.topo.add_interface(
        Interface{ptp.at(2), ra, id, InterfaceRole::PrivatePtp});
    return id;
  }

  PeeringObservation obs_for_private(LinkId lid, double delta = 0.2) {
    const Link& link = net.topo.link(lid);
    PeeringObservation obs;
    obs.kind = PeeringKind::Private;
    obs.near_addr = link.a.address;
    obs.near_as = net.topo.router(link.a.router).owner;
    obs.far_addr = link.b.address;
    obs.far_as = net.topo.router(link.b.router).owner;
    obs.near_rtt_ms = 10.0;
    obs.far_rtt_ms = 10.0 + delta;
    return obs;
  }

  PeeringObservation obs_for_public(LinkId lid) {
    const Link& link = net.topo.link(lid);
    PeeringObservation obs;
    obs.kind = PeeringKind::Public;
    obs.near_addr = net.topo.router(link.a.router).local_address;
    obs.near_as = net.topo.router(link.a.router).owner;
    obs.far_addr = link.b.address;  // far side's IXP LAN address
    obs.far_as = net.topo.router(link.b.router).owner;
    obs.ixp = net.ix;
    return obs;
  }
};

TEST(Validation, TrueFacilityFollowsRouterLocation) {
  ValidationFixture fx;
  const Link& link = fx.net.topo.link(fx.ca_xconnect);
  EXPECT_EQ(fx.harness->true_facility(link.a.address), fx.net.fac[2]);
  EXPECT_EQ(fx.harness->true_facility(link.b.address), fx.net.fac[2]);
  EXPECT_FALSE(
      fx.harness->true_facility(*Ipv4::parse("9.9.9.9")).has_value());
}

TEST(Validation, TrueLinkTypeCrossConnect) {
  ValidationFixture fx;
  EXPECT_EQ(fx.harness->true_link_type(fx.obs_for_private(fx.ca_xconnect)),
            InterconnectionType::PrivateCrossConnect);
}

TEST(Validation, TrueLinkTypeTethering) {
  ValidationFixture fx;
  EXPECT_EQ(fx.harness->true_link_type(fx.obs_for_private(fx.ce_tether)),
            InterconnectionType::PrivateTethering);
}

TEST(Validation, TrueLinkTypeRemotePrivateOnlyAcrossMetros) {
  ValidationFixture fx;
  // Frankfurt <-> London circuit: remote.
  EXPECT_EQ(fx.harness->true_link_type(fx.obs_for_private(fx.remote_private)),
            InterconnectionType::PrivateRemote);
}

TEST(Validation, TrueLinkTypePublicLocalAndRemote) {
  ValidationFixture fx;
  EXPECT_EQ(fx.harness->true_link_type(fx.obs_for_public(fx.ae_public)),
            InterconnectionType::PublicLocal);
  EXPECT_EQ(fx.harness->true_link_type(fx.obs_for_public(fx.ar_public)),
            InterconnectionType::PublicRemote);
}

TEST(Validation, OracleScoresResolvedInterfaces) {
  ValidationFixture fx;
  const Link& link = fx.net.topo.link(fx.ca_xconnect);

  CfsReport report;
  InterfaceInference right;
  right.addr = link.a.address;
  right.asn = fx.c;
  right.has_constraint = true;
  right.candidates = {fx.net.fac[2]};
  report.interfaces.emplace(right.addr, right);

  InterfaceInference same_metro_wrong;
  same_metro_wrong.addr = link.b.address;
  same_metro_wrong.asn = fx.a;
  same_metro_wrong.has_constraint = true;
  same_metro_wrong.candidates = {fx.net.fac[1]};  // wrong bldg, same metro
  report.interfaces.emplace(same_metro_wrong.addr, same_metro_wrong);

  const auto acc = fx.harness->oracle_interface_accuracy(report);
  EXPECT_EQ(acc.total, 2u);
  EXPECT_EQ(acc.correct, 1u);
  EXPECT_EQ(acc.city_correct, 1u);
  EXPECT_DOUBLE_EQ(acc.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(acc.city_accuracy(), 1.0);
}

// Pairs are scored against each address's true router, IXP LAN ports
// through the member's port router; unknown addresses are skipped.
TEST(Validation, OracleScoresAliasPairs) {
  ValidationFixture fx;
  const Topology& topo = fx.net.topo;
  const Link& xc = topo.link(fx.ca_xconnect);  // a: C side, b: A side
  const RouterId a1 = fx.net.router(fx.a, 1);
  const RouterId a2 = fx.net.router(fx.a, 2);
  const RouterId a4 = fx.net.router(fx.a, 4);
  const RouterId c2 = fx.net.router(fx.c, 2);
  const IxpPort* port = topo.ixp(fx.net.ix).port_of(fx.a, a1);
  ASSERT_NE(port, nullptr);
  fx.net.topo.mutable_router(a4).ipid = IpIdBehaviour::Random;

  CfsReport report;
  report.aliases.sets = {
      {topo.router(a1).local_address, port->lan_address},  // 1 true pair
      {topo.router(a2).local_address, xc.b.address},       // 1 true pair
      {topo.router(c2).local_address, topo.router(a4).local_address},
      {*Ipv4::parse("9.9.9.9")},
  };
  report.aliases.unresolved = {xc.a.address};  // C's router: 1 missed pair

  const AliasAccuracy acc = fx.harness->oracle_alias_accuracy(report);
  EXPECT_EQ(acc.true_pairs, 2u);
  EXPECT_EQ(acc.false_pairs, 1u);
  EXPECT_EQ(acc.missed_pairs, 1u);
  EXPECT_EQ(acc.wrong_sets, 1u);
  EXPECT_EQ(acc.multi_sets, 3u);
  EXPECT_EQ(acc.random_in_sets, 1u);
  EXPECT_EQ(acc.random_unresolved, 0u);
  EXPECT_DOUBLE_EQ(acc.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(acc.recall(), 2.0 / 3.0);
}

TEST(Validation, BreakdownCoversCooperatingOperatorOnly) {
  ValidationFixture fx;
  const Link& link = fx.net.topo.link(fx.ca_xconnect);

  CfsReport report;
  // C's side (cooperating) and A's side (not cooperating, but A adopts
  // communities and hosts BGP-capable LGs, so it lands in that source).
  for (const auto& [addr, asn] :
       {std::pair{link.a.address, fx.c}, std::pair{link.b.address, fx.a}}) {
    InterfaceInference inf;
    inf.addr = addr;
    inf.asn = asn;
    inf.has_constraint = true;
    inf.candidates = {fx.net.fac[2]};
    report.interfaces.emplace(addr, inf);
  }
  LinkInference li;
  li.obs = fx.obs_for_private(fx.ca_xconnect);
  li.type = InterconnectionType::PrivateCrossConnect;
  li.near_facility = fx.net.fac[2];
  report.links.push_back(li);
  // Reverse direction: A as the near side.
  LinkInference reverse;
  reverse.obs = li.obs;
  std::swap(reverse.obs.near_addr, reverse.obs.far_addr);
  std::swap(reverse.obs.near_as, reverse.obs.far_as);
  reverse.type = InterconnectionType::PrivateCrossConnect;
  reverse.near_facility = fx.net.fac[2];
  report.links.push_back(reverse);

  const auto breakdown = fx.harness->validate(report);
  const auto direct = breakdown.find(
      {ValidationSource::DirectFeedback, ValidationLinkType::CrossConnect});
  ASSERT_NE(direct, breakdown.end());
  EXPECT_EQ(direct->second.total, 1u);  // only C's interface
  EXPECT_EQ(direct->second.correct, 1u);

  const auto comm = breakdown.find(
      {ValidationSource::BgpCommunities, ValidationLinkType::CrossConnect});
  ASSERT_NE(comm, breakdown.end());
  EXPECT_GE(comm->second.total, 1u);  // A adopts communities
}

TEST(Validation, IxpWebsiteSourceScoresFarEnds) {
  ValidationFixture fx;
  CfsReport report;
  LinkInference li;
  li.obs = fx.obs_for_public(fx.ae_public);
  li.type = InterconnectionType::PublicLocal;
  li.far_facility = fx.net.fac[3];  // correct: E's port facility
  report.links.push_back(li);

  const auto breakdown = fx.harness->validate(report);
  const auto site = breakdown.find(
      {ValidationSource::IxpWebsites, ValidationLinkType::PublicLocal});
  ASSERT_NE(site, breakdown.end());
  EXPECT_EQ(site->second.total, 1u);
  EXPECT_EQ(site->second.correct, 1u);
}

TEST(Validation, SourceNamesAreStable) {
  EXPECT_EQ(validation_source_name(ValidationSource::DirectFeedback),
            "direct feedback");
  EXPECT_EQ(validation_source_name(ValidationSource::IxpWebsites),
            "IXP websites");
  EXPECT_EQ(validation_link_type_name(ValidationLinkType::Tethering),
            "tethering");
  EXPECT_EQ(interconnection_type_name(InterconnectionType::PublicRemote),
            "public remote");
}

}  // namespace
}  // namespace cfs
