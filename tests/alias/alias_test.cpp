#include "alias/midar.h"

#include <gtest/gtest.h>

#include "support/mini_net.h"
#include "topology/generator.h"

namespace cfs {
namespace {

using testing::MiniNet;

// Fixture: one AS with three routers (facilities 1, 2, 4), each with a
// local address plus backbone interfaces; all routers default to
// SharedCounter behaviour.
struct AliasFixture {
  MiniNet net;
  Asn a;

  AliasFixture() { a = net.add_as(1000, AsType::Transit, {1, 2, 4}); }

  std::vector<Ipv4> interfaces_of(RouterId router) const {
    return net.topo.router(router).interfaces;
  }
};

TEST(IpIdModel, SharedCounterIsMonotonic) {
  AliasFixture fx;
  IpIdModel model(fx.net.topo, 1);
  const RouterId r = fx.net.router(fx.a, 1);
  const Ipv4 addr = fx.net.topo.router(r).local_address;
  std::uint16_t prev = *model.probe(addr, 0.0);
  double unwrapped = 0;
  for (int i = 1; i < 50; ++i) {
    const std::uint16_t cur = *model.probe(addr, 0.1 * i);
    unwrapped += static_cast<std::uint16_t>(cur - prev);
    prev = cur;
  }
  const double v = model.velocity(r);
  EXPECT_NEAR(unwrapped / (0.1 * 49), v, v * 0.1 + 20);
}

TEST(IpIdModel, AllInterfacesShareTheCounter) {
  AliasFixture fx;
  IpIdModel model(fx.net.topo, 1);
  const RouterId r = fx.net.router(fx.a, 1);
  const auto ifaces = fx.interfaces_of(r);
  ASSERT_GE(ifaces.size(), 2u);
  const auto v0 = model.probe(ifaces[0], 5.0);
  const auto v1 = model.probe(ifaces[1], 5.0);
  ASSERT_TRUE(v0 && v1);
  EXPECT_EQ(*v0, *v1);
}

TEST(IpIdModel, BehaviourVariants) {
  AliasFixture fx;
  const RouterId r = fx.net.router(fx.a, 1);
  const Ipv4 addr = fx.net.topo.router(r).local_address;

  fx.net.topo.mutable_router(r).ipid = IpIdBehaviour::Unresponsive;
  IpIdModel unresponsive(fx.net.topo, 1);
  EXPECT_FALSE(unresponsive.probe(addr, 0.0).has_value());

  fx.net.topo.mutable_router(r).ipid = IpIdBehaviour::Zero;
  IpIdModel zero(fx.net.topo, 1);
  EXPECT_EQ(*zero.probe(addr, 0.0), 0);
  EXPECT_EQ(*zero.probe(addr, 9.0), 0);

  fx.net.topo.mutable_router(r).ipid = IpIdBehaviour::Random;
  IpIdModel random_model(fx.net.topo, 1);
  std::set<std::uint16_t> values;
  for (int i = 0; i < 20; ++i) values.insert(*random_model.probe(addr, 0.1 * i));
  EXPECT_GT(values.size(), 10u);
}

TEST(IpIdModel, UnknownAddressUnanswered) {
  AliasFixture fx;
  IpIdModel model(fx.net.topo, 1);
  EXPECT_FALSE(model.probe(*Ipv4::parse("9.9.9.9"), 0.0).has_value());
}

// Interleaved collection as the resolver runs it: `samples` rounds, each
// probing every target once, one probe every `interval_s` of virtual time.
// Series are index-aligned with `targets`; unanswered probes leave gaps.
std::vector<IpIdSeries> collect(IpIdModel& model,
                                const std::vector<Ipv4>& targets,
                                int samples = 12, double interval_s = 0.1) {
  std::vector<IpIdSeries> series(targets.size());
  double clock = 0.0;
  for (int round = 0; round < samples; ++round)
    for (std::size_t k = 0; k < targets.size(); ++k) {
      if (const auto ipid = model.probe(targets[k], clock))
        series[k].push_back(IpIdSample{clock, *ipid});
      clock += interval_s;
    }
  return series;
}

bool mbt(const IpIdSeries& a, const IpIdSeries& b) {
  IpIdSeries merged(a.size() + b.size());
  return monotonic_bounds_test(a.data(), a.size(), b.data(), b.size(),
                               merged.data());
}

TEST(Prober, VelocityEstimateMatchesGroundTruth) {
  AliasFixture fx;
  IpIdModel model(fx.net.topo, 1);
  const RouterId r = fx.net.router(fx.a, 1);
  const Ipv4 addr = fx.net.topo.router(r).local_address;
  const auto series = collect(model, {addr}, 30, 0.05);
  const double est = estimate_velocity(series[0].data(), series[0].size());
  EXPECT_NEAR(est, model.velocity(r), model.velocity(r) * 0.1 + 25);
}

TEST(Prober, ConstantSeriesDetected) {
  IpIdSeries series;
  for (int i = 0; i < 5; ++i) series.push_back({0.1 * i, 42});
  EXPECT_TRUE(is_constant(series.data(), series.size()));
  EXPECT_LT(estimate_velocity(series.data(), series.size()), 0.0);
  series.push_back({1.0, 43});
  EXPECT_FALSE(is_constant(series.data(), series.size()));
}

TEST(Mbt, AcceptsSharedCounterPair) {
  AliasFixture fx;
  IpIdModel model(fx.net.topo, 1);
  const auto ifaces = fx.interfaces_of(fx.net.router(fx.a, 1));
  ASSERT_GE(ifaces.size(), 2u);
  const auto series = collect(model, {ifaces[0], ifaces[1]});
  EXPECT_TRUE(mbt(series[0], series[1]));
}

TEST(Mbt, RejectsDistinctRouters) {
  AliasFixture fx;
  IpIdModel model(fx.net.topo, 1);
  const Ipv4 a1 = fx.net.topo.router(fx.net.router(fx.a, 1)).local_address;
  const Ipv4 a2 = fx.net.topo.router(fx.net.router(fx.a, 2)).local_address;
  const auto series = collect(model, {a1, a2});
  EXPECT_FALSE(mbt(series[0], series[1]));
}

TEST(Mbt, VelocitySieve) {
  EXPECT_TRUE(velocities_compatible(100.0, 110.0));
  EXPECT_FALSE(velocities_compatible(100.0, 200.0));
  EXPECT_FALSE(velocities_compatible(-1.0, 100.0));
  EXPECT_FALSE(velocities_compatible(100.0, 1e6));
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_NE(uf.find(0), uf.find(1));
  uf.unite(0, 1);
  uf.unite(1, 2);
  EXPECT_EQ(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(0), uf.find(3));
  uf.unite(3, 4);
  uf.unite(0, 4);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(uf.find(0), uf.find(i));
}

TEST(Resolver, GroupsInterfacesByRouterWithoutFalsePositives) {
  AliasFixture fx;
  // Collect every interface of the three routers.
  std::vector<Ipv4> targets;
  std::unordered_map<Ipv4, RouterId> truth;
  for (const auto& router : fx.net.topo.routers()) {
    for (const Ipv4 addr : router.interfaces) {
      targets.push_back(addr);
      truth.emplace(addr, router.id);
    }
  }

  AliasResolver resolver(fx.net.topo, 7);
  const AliasSets sets = resolver.resolve(targets);

  // No false positives: every inferred set maps to exactly one router.
  for (const auto& set : sets.sets) {
    ASSERT_FALSE(set.empty());
    const RouterId expected = truth.at(set.front());
    for (const Ipv4 addr : set) EXPECT_EQ(truth.at(addr), expected);
  }
  // Completeness: shared-counter routers fully merged.
  for (const auto& router : fx.net.topo.routers()) {
    if (router.ipid != IpIdBehaviour::SharedCounter) continue;
    std::set<int> set_ids;
    for (const Ipv4 addr : router.interfaces)
      set_ids.insert(sets.set_of(addr));
    EXPECT_EQ(set_ids.size(), 1u) << "router split across sets";
  }
}

TEST(Resolver, NonSharedCountersEndUpUnresolved) {
  AliasFixture fx;
  const RouterId r1 = fx.net.router(fx.a, 1);
  const RouterId r2 = fx.net.router(fx.a, 2);
  fx.net.topo.mutable_router(r1).ipid = IpIdBehaviour::Random;
  fx.net.topo.mutable_router(r2).ipid = IpIdBehaviour::Zero;

  std::vector<Ipv4> targets = {
      fx.net.topo.router(r1).local_address,
      fx.net.topo.router(r2).local_address,
  };
  AliasResolver resolver(fx.net.topo, 7);
  const AliasSets sets = resolver.resolve(targets);
  EXPECT_EQ(sets.unresolved.size(), 2u);
  EXPECT_TRUE(sets.sets.empty());
}

TEST(Resolver, DuplicateTargetsDeduplicated) {
  AliasFixture fx;
  const Ipv4 addr =
      fx.net.topo.router(fx.net.router(fx.a, 1)).local_address;
  AliasResolver resolver(fx.net.topo, 7);
  const AliasSets sets = resolver.resolve({addr, addr, addr});
  std::size_t occurrences = 0;
  for (const auto& set : sets.sets)
    occurrences += std::count(set.begin(), set.end(), addr);
  EXPECT_EQ(occurrences, 1u);
}

// Property test at generated scale: zero false positives is the MIDAR
// design contract and the thing CFS Step 3 depends on.
TEST(ResolverProperty, NoFalsePositivesOnGeneratedTopology) {
  const Topology topo = generate_topology(GeneratorConfig::tiny());
  std::vector<Ipv4> targets;
  std::unordered_map<Ipv4, RouterId> truth;
  for (const auto& router : topo.routers())
    for (const Ipv4 addr : router.interfaces) {
      targets.push_back(addr);
      truth.emplace(addr, router.id);
    }

  AliasResolver resolver(topo, 13);
  const AliasSets sets = resolver.resolve(targets);
  std::size_t merged_pairs = 0;
  for (const auto& set : sets.sets) {
    const RouterId expected = truth.at(set.front());
    for (const Ipv4 addr : set) ASSERT_EQ(truth.at(addr), expected);
    merged_pairs += set.size() - 1;
  }
  EXPECT_GT(merged_pairs, 0u);  // it actually aliases something
}

}  // namespace
}  // namespace cfs
