#include "core/reverse.h"

#include <gtest/gtest.h>

#include <optional>

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

  // Absorbs `obs` into `fold` and narrows its far end to `far_cands`.
  static void absorb(ConstraintFold& fold, const PeeringObservation& obs,
                     const std::vector<FacilityId>& far_cands) {
    const ConstraintFold::Absorbed absorbed = fold.absorb(obs);
    fold.ifaces.constrain(absorbed.far, far_cands.data(), far_cands.size(),
                          /*iteration=*/1);
  }

  // The driver's VP-by-AS index, optionally restricted to one platform.
  VpsByAs index(std::optional<Platform> platform = std::nullopt) const {
    VpsByAs by_as;
    for (const VantagePoint& vp : vps->all())
      if (!platform || vp.platform == *platform)
        by_as[vp.asn.value].push_back(&vp);
    return by_as;
  }

  std::vector<FacilityId> unresolved() const {
    return {net.fac[2], net.fac[3]};
  }
};

TEST(Reverse, PlansProbesFromFarSideVantagePoints) {
  ReverseFixture fx;
  ConstraintFold fold;
  ReverseFixture::absorb(fold, fx.public_obs(), fx.unresolved());

  const auto plan = plan_reverse_probes(fx.net.topo, fold, fx.index(), 8);
  ASSERT_FALSE(plan.empty());
  for (const ProbeUnit& probe : plan) {
    EXPECT_EQ(probe.vp->asn, fx.e);  // inside the far AS
    EXPECT_EQ(fx.net.topo.origin_of(probe.target), fx.a);  // toward near AS
  }
}

TEST(Reverse, SkipsResolvedFarEnds) {
  ReverseFixture fx;
  ConstraintFold fold;
  ReverseFixture::absorb(fold, fx.public_obs(), {fx.net.fac[3]});
  EXPECT_TRUE(plan_reverse_probes(fx.net.topo, fold, fx.index(), 8).empty());
}

TEST(Reverse, SkipsPrivateObservations) {
  ReverseFixture fx;
  auto obs = fx.public_obs();
  obs.kind = PeeringKind::Private;
  ConstraintFold fold;
  ReverseFixture::absorb(fold, obs, fx.unresolved());
  EXPECT_TRUE(plan_reverse_probes(fx.net.topo, fold, fx.index(), 8).empty());
}

TEST(Reverse, HonoursBudget) {
  ReverseFixture fx;
  ConstraintFold fold;
  ReverseFixture::absorb(fold, fx.public_obs(), fx.unresolved());
  EXPECT_LE(plan_reverse_probes(fx.net.topo, fold, fx.index(), 1).size(), 1u);
  EXPECT_TRUE(plan_reverse_probes(fx.net.topo, fold, fx.index(), 0).empty());
}

TEST(Reverse, PlatformFilterRestrictsVantagePoints) {
  ReverseFixture fx;
  ConstraintFold fold;
  ReverseFixture::absorb(fold, fx.public_obs(), fx.unresolved());
  // All VPs in E are Atlas hosts; an index of looking glasses only has
  // none there.
  EXPECT_TRUE(plan_reverse_probes(fx.net.topo, fold,
                                  fx.index(Platform::LookingGlass), 8)
                  .empty());
  EXPECT_FALSE(plan_reverse_probes(fx.net.topo, fold,
                                   fx.index(Platform::RipeAtlas), 8)
                   .empty());
}

TEST(Reverse, DeduplicatesFarAddresses) {
  ReverseFixture fx;
  const auto obs = fx.public_obs();
  ConstraintFold single;
  ReverseFixture::absorb(single, obs, fx.unresolved());
  const auto one = plan_reverse_probes(fx.net.topo, single, fx.index(), 16);
  ASSERT_FALSE(one.empty());

  // A second crossing into the same far address, from another near
  // address, must not double the plan.
  auto other = obs;
  other.near_addr = fx.net.take_address(fx.a);
  ConstraintFold both;
  ReverseFixture::absorb(both, obs, fx.unresolved());
  ReverseFixture::absorb(both, other, fx.unresolved());
  ASSERT_EQ(both.store.live_count(), 2u);
  const auto plan = plan_reverse_probes(fx.net.topo, both, fx.index(), 16);
  EXPECT_EQ(plan.size(), one.size());
  EXPECT_LE(plan.size(), 2u);  // at most two targets per far interface
}

TEST(Reverse, SkipsDeadSlots) {
  ReverseFixture fx;
  ConstraintFold fold;
  ReverseFixture::absorb(fold, fx.public_obs(), fx.unresolved());
  ASSERT_FALSE(plan_reverse_probes(fx.net.topo, fold, fx.index(), 8).empty());
  // A refresh that kills every slot and does not replay this observation
  // leaves its far end present and unresolved, but plans nothing for it.
  fold.store.kill_all();
  EXPECT_TRUE(plan_reverse_probes(fx.net.topo, fold, fx.index(), 8).empty());
}

}  // namespace
}  // namespace cfs
