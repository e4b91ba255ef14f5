#include "traceroute/engine.h"

#include <gtest/gtest.h>

#include "support/mini_net.h"
#include "traceroute/campaign.h"
#include "topology/generator.h"

namespace cfs {
namespace {

using testing::MiniNet;

struct EngineFixture {
  MiniNet net;
  Asn a, c, e;
  LinkId c_e_link;

  EngineFixture() {
    a = net.add_as(1000, AsType::Transit, {1, 2, 4});
    c = net.add_as(5000, AsType::Content, {1, 3});
    e = net.add_as(10000, AsType::Eyeball, {2, 3});
    net.xconnect(c, a, 1, BusinessRel::CustomerProvider);
    net.xconnect(e, a, 2, BusinessRel::CustomerProvider);
    net.join_ixp(c, 3);
    net.join_ixp(e, 3);
    c_e_link = net.public_peer(c, e, BusinessRel::PeerPeer);
    net.topo.validate();
  }

  VantagePoint vp_at(Asn asn, int fac_index, double access = 5.0) {
    VantagePoint vp;
    vp.id = VantagePointId(0);
    vp.platform = Platform::RipeAtlas;
    vp.attach = net.router(asn, fac_index);
    vp.asn = asn;
    vp.address = net.take_address(asn);
    vp.access_ms = access;
    return vp;
  }
};

EngineConfig quiet_config() {
  EngineConfig cfg;
  cfg.jitter_ms = 0.0;
  cfg.probe_loss = 0.0;
  return cfg;
}

TEST(Engine, TraceReachesBareHostAddress) {
  EngineFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  TracerouteEngine engine(fx.net.topo, fwd, quiet_config(), 1);

  const Prefix& e_block = fx.net.topo.as_of(fx.e).prefixes.front();
  const Ipv4 target = e_block.at(e_block.size() / 2);
  const auto vp = fx.vp_at(fx.c, 1);
  const TraceResult result = engine.trace_seeded(vp, target, 1);
  ASSERT_FALSE(result.hops.empty());
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.hops.back().address, target);
}

TEST(Engine, TraceToInterfaceEndsOnThatAddress) {
  EngineFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  TracerouteEngine engine(fx.net.topo, fwd, quiet_config(), 1);

  const Link& link = fx.net.topo.link(fx.c_e_link);
  const auto vp = fx.vp_at(fx.c, 1);
  const TraceResult result = engine.trace_seeded(vp, link.b.address, 1);
  ASSERT_FALSE(result.hops.empty());
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.hops.back().address, link.b.address);
}

TEST(Engine, PublicPeeringSignatureVisible) {
  EngineFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  TracerouteEngine engine(fx.net.topo, fwd, quiet_config(), 1);

  const Prefix& e_block = fx.net.topo.as_of(fx.e).prefixes.front();
  const auto vp = fx.vp_at(fx.c, 3);
  const TraceResult result = engine.trace_seeded(vp, e_block.at(500), 1);
  // Expect some hop with an IXP LAN address.
  bool ixp_hop = false;
  for (const Hop& hop : result.hops)
    if (hop.responded && fx.net.topo.ixp_of_address(hop.address).has_value())
      ixp_hop = true;
  EXPECT_TRUE(ixp_hop);
}

TEST(Engine, RttsIncludeAccessDelayAndGrow) {
  EngineFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  TracerouteEngine engine(fx.net.topo, fwd, quiet_config(), 1);

  const Prefix& e_block = fx.net.topo.as_of(fx.e).prefixes.front();
  const auto vp = fx.vp_at(fx.c, 1, /*access=*/10.0);
  const TraceResult result = engine.trace_seeded(vp, e_block.at(500), 1);
  ASSERT_GE(result.hops.size(), 2u);
  for (const Hop& hop : result.hops) {
    if (!hop.responded) continue;
    EXPECT_GE(hop.rtt_ms, 20.0);  // 2x access latency floor
  }
  EXPECT_LE(result.hops.front().rtt_ms, result.hops.back().rtt_ms);
}

TEST(Engine, UnresponsiveRouterLeavesGap) {
  EngineFixture fx;
  // Silence E's router at facility 2/3 boundary: pick the router that C->E
  // path enters (the IXP port router at fac 3).
  const RouterId silent = fx.net.router(fx.e, 3);
  fx.net.topo.mutable_router(silent).responds_to_traceroute = false;

  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  TracerouteEngine engine(fx.net.topo, fwd, quiet_config(), 1);

  const Prefix& e_block = fx.net.topo.as_of(fx.e).prefixes.front();
  const auto vp = fx.vp_at(fx.c, 3);
  const TraceResult result = engine.trace_seeded(vp, e_block.at(500), 1);
  bool gap = false;
  for (const Hop& hop : result.hops) gap |= !hop.responded;
  EXPECT_TRUE(gap);
}

TEST(Engine, ProbeLossProducesGapsStatistically) {
  EngineFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  EngineConfig cfg = quiet_config();
  cfg.probe_loss = 0.5;
  TracerouteEngine engine(fx.net.topo, fwd, cfg, 2);

  const Prefix& e_block = fx.net.topo.as_of(fx.e).prefixes.front();
  const auto vp = fx.vp_at(fx.c, 1);
  int missing = 0;
  int total = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const TraceResult result = engine.trace_seeded(vp, e_block.at(500), i);
    for (const Hop& hop : result.hops) {
      ++total;
      missing += !hop.responded;
    }
  }
  EXPECT_GT(missing, total / 4);
  EXPECT_LT(missing, 3 * total / 4);
}

TEST(Engine, UnreachableTargetGivesEmptyTrace) {
  EngineFixture fx;
  RoutingOracle oracle(fx.net.topo);
  ForwardingEngine fwd(fx.net.topo, oracle);
  TracerouteEngine engine(fx.net.topo, fwd, quiet_config(), 1);
  const auto vp = fx.vp_at(fx.c, 1);
  const TraceResult result = engine.trace_seeded(vp, *Ipv4::parse("9.9.9.9"), 1);
  EXPECT_TRUE(result.hops.empty());
  EXPECT_FALSE(result.reached_target);
}

TEST(Campaign, TargetsForCoversEveryPrefix) {
  EngineFixture fx;
  const auto targets = MeasurementCampaign::targets_for(fx.net.topo, fx.c);
  EXPECT_EQ(targets.size(), fx.net.topo.as_of(fx.c).prefixes.size());
  for (const Ipv4 t : targets) {
    EXPECT_EQ(fx.net.topo.origin_of(t), fx.c);
    EXPECT_EQ(fx.net.topo.find_interface(t), nullptr);
  }
}

TEST(Campaign, LookingGlassQueriesAdvanceVirtualClock) {
  const Topology base = generate_topology(GeneratorConfig::tiny());
  Topology topo = base;  // copy to mutate via VantagePointSet
  LookingGlassDirectory lgs(topo, {.host_probability = 1.0,
                                   .bgp_support_probability = 0.5,
                                   .cooldown_s = 60.0,
                                   .seed = 1});
  PlatformConfig pcfg;
  pcfg.atlas_target = 5;
  pcfg.iplane_target = 0;
  pcfg.ark_target = 0;
  VantagePointSet vps(topo, lgs, pcfg);

  RoutingOracle oracle(topo);
  ForwardingEngine fwd(topo, oracle);
  TracerouteEngine engine(topo, fwd, EngineConfig{}, 4);
  MeasurementCampaign campaign(topo, engine, lgs);

  const auto lg_vps = vps.of(Platform::LookingGlass);
  ASSERT_FALSE(lg_vps.empty());
  const auto targets =
      MeasurementCampaign::targets_for(topo, topo.ases().front().asn);
  ASSERT_FALSE(targets.empty());

  const double before = campaign.virtual_elapsed_s();
  campaign.run(std::span(lg_vps.data(), 1), targets);
  campaign.run(std::span(lg_vps.data(), 1), targets);
  EXPECT_GT(campaign.virtual_elapsed_s(), before + 60.0);
  EXPECT_GT(campaign.traces_attempted(), 0u);
}

}  // namespace
}  // namespace cfs
