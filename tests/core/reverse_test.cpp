#include "core/reverse.h"

#include <gtest/gtest.h>

#include "support/mini_net.h"

namespace cfs {
namespace {

using testing::MiniNet;

struct ReverseFixture {
  MiniNet net;
  Asn a, e;
  LinkId ae_public;
  std::unique_ptr<LookingGlassDirectory> lgs;
  std::unique_ptr<VantagePointSet> vps;

  ReverseFixture() {
    a = net.add_as(1000, AsType::Transit, {1, 4});
    e = net.add_as(10000, AsType::Eyeball, {3});
    net.join_ixp(a, 1);
    net.join_ixp(e, 3);
    ae_public = net.public_peer(a, e, BusinessRel::PeerPeer);

    lgs = std::make_unique<LookingGlassDirectory>(
        net.topo, LookingGlassDirectory::Config{.host_probability = 1.0,
                                                .bgp_support_probability = 0,
                                                .cooldown_s = 60,
                                                .seed = 1});
    PlatformConfig pcfg;
    pcfg.atlas_target = 10;  // hosted in E (the only eyeball)
    pcfg.iplane_target = 0;
    pcfg.ark_target = 0;
    vps = std::make_unique<VantagePointSet>(net.topo, *lgs, pcfg);
  }

  PeeringObservation public_obs() {
    const Link& link = net.topo.link(ae_public);
    PeeringObservation obs;
    obs.kind = PeeringKind::Public;
    obs.near_addr = net.topo.router(link.a.router).local_address;
    obs.near_as = a;
    obs.far_addr = link.b.address;
    obs.far_as = e;
    obs.ixp = net.ix;
    return obs;
  }
};

TEST(Reverse, PlansProbesFromFarSideVantagePoints) {
  ReverseFixture fx;
  const auto obs = fx.public_obs();
  std::unordered_map<Ipv4, InterfaceInference> interfaces;
  InterfaceInference far;
  far.addr = obs.far_addr;
  far.asn = fx.e;
  far.has_constraint = true;
  far.candidates = {fx.net.fac[2], fx.net.fac[3]};  // unresolved
  interfaces.emplace(far.addr, far);

  const auto plan =
      plan_reverse_probes(fx.net.topo, *fx.vps, interfaces, {obs}, 8);
  ASSERT_FALSE(plan.empty());
  for (const ReverseProbe& probe : plan) {
    EXPECT_EQ(fx.vps->vp(probe.vp).asn, fx.e);       // inside the far AS
    EXPECT_EQ(fx.net.topo.origin_of(probe.target), fx.a);  // toward near AS
  }
}

TEST(Reverse, SkipsResolvedFarEnds) {
  ReverseFixture fx;
  const auto obs = fx.public_obs();
  std::unordered_map<Ipv4, InterfaceInference> interfaces;
  InterfaceInference far;
  far.addr = obs.far_addr;
  far.asn = fx.e;
  far.has_constraint = true;
  far.candidates = {fx.net.fac[3]};  // already resolved
  interfaces.emplace(far.addr, far);
  EXPECT_TRUE(
      plan_reverse_probes(fx.net.topo, *fx.vps, interfaces, {obs}, 8).empty());
}

TEST(Reverse, SkipsPrivateObservations) {
  ReverseFixture fx;
  auto obs = fx.public_obs();
  obs.kind = PeeringKind::Private;
  std::unordered_map<Ipv4, InterfaceInference> interfaces;
  InterfaceInference far;
  far.addr = obs.far_addr;
  far.asn = fx.e;
  far.has_constraint = true;
  far.candidates = {fx.net.fac[2], fx.net.fac[3]};
  interfaces.emplace(far.addr, far);
  EXPECT_TRUE(
      plan_reverse_probes(fx.net.topo, *fx.vps, interfaces, {obs}, 8).empty());
}

TEST(Reverse, HonoursBudget) {
  ReverseFixture fx;
  const auto obs = fx.public_obs();
  std::unordered_map<Ipv4, InterfaceInference> interfaces;
  InterfaceInference far;
  far.addr = obs.far_addr;
  far.asn = fx.e;
  far.has_constraint = true;
  far.candidates = {fx.net.fac[2], fx.net.fac[3]};
  interfaces.emplace(far.addr, far);
  EXPECT_LE(
      plan_reverse_probes(fx.net.topo, *fx.vps, interfaces, {obs}, 1).size(),
      1u);
  EXPECT_TRUE(
      plan_reverse_probes(fx.net.topo, *fx.vps, interfaces, {obs}, 0).empty());
}

TEST(Reverse, PlatformFilterRestrictsVantagePoints) {
  ReverseFixture fx;
  const auto obs = fx.public_obs();
  std::unordered_map<Ipv4, InterfaceInference> interfaces;
  InterfaceInference far;
  far.addr = obs.far_addr;
  far.asn = fx.e;
  far.has_constraint = true;
  far.candidates = {fx.net.fac[2], fx.net.fac[3]};
  interfaces.emplace(far.addr, far);
  // All VPs in E are Atlas hosts; filtering to LookingGlass excludes them.
  EXPECT_TRUE(plan_reverse_probes(fx.net.topo, *fx.vps, interfaces, {obs}, 8,
                                  Platform::LookingGlass)
                  .empty());
  EXPECT_FALSE(plan_reverse_probes(fx.net.topo, *fx.vps, interfaces, {obs}, 8,
                                   Platform::RipeAtlas)
                   .empty());
}

TEST(Reverse, DeduplicatesFarAddresses) {
  ReverseFixture fx;
  const auto obs = fx.public_obs();
  std::unordered_map<Ipv4, InterfaceInference> interfaces;
  InterfaceInference far;
  far.addr = obs.far_addr;
  far.asn = fx.e;
  far.has_constraint = true;
  far.candidates = {fx.net.fac[2], fx.net.fac[3]};
  interfaces.emplace(far.addr, far);
  // The same observation repeated must not double the plan.
  const auto plan = plan_reverse_probes(fx.net.topo, *fx.vps, interfaces,
                                        {obs, obs, obs}, 16);
  EXPECT_LE(plan.size(), 2u);  // at most two targets per far interface
}

}  // namespace
}  // namespace cfs
