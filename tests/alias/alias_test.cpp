#include "alias/midar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/mini_net.h"
#include "topology/generator.h"
#include "util/rng.h"

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

// The screen is conservative: a series holding any consecutive merged
// delta it flags never passes the full test. Seeded synthetic pairs on
// the resolver's interleaved 0.1 s schedule, taken at clock magnitudes up
// to 1e11 (where one ulp is about 1.5e-5 s, so gaps are not exactly 0.1),
// cover one shared counter, two distinct counters, one shared counter
// with a single injected jump, and Random IP-IDs on one or both sides,
// with counter velocities up to kRandomVelocityCutoff.
TEST(Mbt, ScreenNeverRejectsAPassingPair) {
  // The edge: a delta equal to the largest budget any acceptable velocity
  // allows is not flagged, one more ID is. At 0.1 s that budget is
  // cutoff * gap * slack = 10000; below 0.00064 s the 64-ID allowance
  // dominates; at a clock of 1e11 a 0.1 s step measures 0.1000061 s.
  EXPECT_FALSE(delta_exceeds_any_budget(0.1, 10000));
  EXPECT_TRUE(delta_exceeds_any_budget(0.1, 10001));
  EXPECT_FALSE(delta_exceeds_any_budget(0.0001, 64));
  EXPECT_TRUE(delta_exceeds_any_budget(0.0001, 65));
  const double far_gap = (1e11 + 0.1) - 1e11;
  EXPECT_FALSE(delta_exceeds_any_budget(far_gap, 10000));
  EXPECT_TRUE(delta_exceeds_any_budget(far_gap, 10001));

  Rng rng(20261019);
  constexpr int kSamples = 12;
  std::size_t flagged = 0;
  std::size_t passing = 0;
  IpIdSeries a(kSamples), b(kSamples), merged(2 * kSamples);
  for (int trial = 0; trial < 20000; ++trial) {
    const double base =
        std::floor(std::pow(10.0, rng.uniform_real(0.0, 11.0))) - 1.0;
    const double rate_a =
        std::pow(10.0, rng.uniform_real(0.0, std::log10(kRandomVelocityCutoff)));
    const double offset_a = rng.uniform_real(0.0, 65536.0);
    const int kind = static_cast<int>(rng.uniform(5));
    // 0 shared, 1 distinct, 2 shared + jump, 3 one Random side, 4 both.
    const double rate_b = kind == 1 ? rate_a * rng.uniform_real(0.8, 1.25)
                                    : rate_a;
    const double offset_b =
        kind == 1 ? rng.uniform_real(0.0, 65536.0) : offset_a;
    const auto counter = [](double offset, double rate, double t) {
      return static_cast<std::uint16_t>(
          static_cast<std::uint64_t>(std::floor(offset + rate * t)) % 65536);
    };
    double clock = base;
    for (int r = 0; r < kSamples; ++r) {
      a[r] = {clock, kind == 4 ? static_cast<std::uint16_t>(rng.uniform(65536))
                               : counter(offset_a, rate_a, clock)};
      clock += 0.1;
      b[r] = {clock, kind >= 3 ? static_cast<std::uint16_t>(rng.uniform(65536))
                               : counter(offset_b, rate_b, clock)};
      clock += 0.1;
    }
    if (kind == 2) {
      IpIdSample& hit = rng.chance(0.5) ? a[rng.index(kSamples)]
                                        : b[rng.index(kSamples)];
      hit.ipid = static_cast<std::uint16_t>(hit.ipid + rng.uniform(20001));
    }

    std::merge(a.begin(), a.end(), b.begin(), b.end(), merged.begin(),
               [](const IpIdSample& x, const IpIdSample& y) {
                 return x.t_s < y.t_s;
               });
    bool screened_out = false;
    for (std::size_t i = 1; i < merged.size(); ++i)
      screened_out |= delta_exceeds_any_budget(
          merged[i].t_s - merged[i - 1].t_s,
          static_cast<std::uint16_t>(merged[i].ipid - merged[i - 1].ipid));
    const bool pass = mbt(a, b);
    if (screened_out) {
      ++flagged;
      EXPECT_FALSE(pass) << "trial " << trial << " kind " << kind
                         << " base " << base << " rate " << rate_a;
    }
    passing += pass ? 1 : 0;
  }
  // Both sides of the property are exercised.
  EXPECT_GT(flagged, 1000u);
  EXPECT_GT(passing, 1000u);
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

// The resolver before its Stage-3 screen, built only from public API:
// every corroboration round collects all 2 * kSamples replies and then
// runs the full monotonic bounds test. Schedule constants mirror
// alias/midar.cpp. Also counts the corroborated pairs by how many of
// their sides are Random-IPID sources.
class UnscreenedResolver {
 public:
  UnscreenedResolver(const Topology& topo, std::uint64_t seed)
      : model_(topo, seed) {}

  AliasSets resolve(const std::vector<Ipv4>& targets) {
    constexpr int kSamples = 12;
    constexpr double kProbeIntervalS = 0.1;
    constexpr int kCorroborationRounds = 3;
    constexpr double kRoundSpacingS = 1200.0;
    AliasSets out;
    std::vector<Ipv4> addrs;
    {
      std::unordered_map<Ipv4, bool> seen;
      for (const Ipv4 a : targets)
        if (!std::exchange(seen[a], true)) addrs.push_back(a);
    }
    std::vector<IpIdModel::CompiledTarget> compiled;
    for (const Ipv4 a : addrs) compiled.push_back(model_.compile(a));

    std::vector<IpIdSeries> series(addrs.size());
    double clock = clock_s_;
    for (int round = 0; round < kSamples; ++round)
      for (std::size_t k = 0; k < addrs.size(); ++k) {
        if (const auto ipid = model_.probe_compiled(compiled[k], clock))
          series[k].push_back(IpIdSample{clock, *ipid});
        clock += kProbeIntervalS;
      }
    probes_ += addrs.size() * static_cast<std::size_t>(kSamples);
    clock_s_ += static_cast<double>(addrs.size()) * kSamples * kProbeIntervalS;

    std::vector<std::pair<double, std::size_t>> candidates;  // (v, slot)
    for (std::size_t k = 0; k < addrs.size(); ++k) {
      const double v =
          series[k].empty()
              ? -1.0
              : estimate_velocity(series[k].data(), series[k].size());
      if (v <= 0.0 || v > kRandomVelocityCutoff)
        out.unresolved.push_back(addrs[k]);
      else
        candidates.emplace_back(v, k);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });

    UnionFind uf(candidates.size());
    IpIdSeries sa, sb;
    for (std::size_t i = 0; i < candidates.size(); ++i)
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        if (!velocities_compatible(candidates[i].first, candidates[j].first))
          break;
        if (uf.find(i) == uf.find(j)) continue;
        const auto& ca = compiled[candidates[i].second];
        const auto& cb = compiled[candidates[j].second];
        ++pairs_by_random_sides[(ca.behaviour == IpIdBehaviour::Random) +
                                (cb.behaviour == IpIdBehaviour::Random)];
        bool pass = true;
        for (int round = 0; round < kCorroborationRounds && pass; ++round) {
          sa.clear();
          sb.clear();
          double t = clock_s_;
          for (int r = 0; r < kSamples; ++r) {
            if (const auto ipid = model_.probe_compiled(ca, t))
              sa.push_back(IpIdSample{t, *ipid});
            t += kProbeIntervalS;
            if (const auto ipid = model_.probe_compiled(cb, t))
              sb.push_back(IpIdSample{t, *ipid});
            t += kProbeIntervalS;
          }
          clock_s_ += kRoundSpacingS;
          probes_ += 2 * static_cast<std::size_t>(kSamples);
          pass = !sa.empty() && !sb.empty() && mbt(sa, sb);
        }
        if (pass) uf.unite(i, j);
      }

    std::unordered_map<std::size_t, std::size_t> root_to_set;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto [it, inserted] =
          root_to_set.try_emplace(uf.find(i), out.sets.size());
      if (inserted) out.sets.emplace_back();
      out.sets[it->second].push_back(addrs[candidates[i].second]);
    }
    return out;
  }

  [[nodiscard]] std::size_t probes_sent() const { return probes_; }

  std::size_t pairs_by_random_sides[3] = {0, 0, 0};

 private:
  IpIdModel model_;
  std::size_t probes_ = 0;
  double clock_s_ = 0.0;
};

// The Stage-3 screen changes how much is computed, never the outcome: on
// generated worlds, each of two back-to-back resolves of a growing target
// set (as CFS refreshes run them) returns the same sets, unresolved
// targets and probe count as the unscreened loop. The second call checks
// that the virtual clock and the Random-IPID stream carried over exactly.
// One world raises ipid_random_prob so Random x counter and Random x
// Random pairs are common. The small worlds resolve every fourth
// interface, which keeps the unscreened reference near 100k pairs each.
TEST(Resolver, ScreenedCorroborationMatchesUnscreened) {
  struct World {
    const char* name;
    GeneratorConfig config;
    std::size_t stride;  // resolve every stride-th interface
  };
  std::vector<World> worlds;
  GeneratorConfig random_heavy = GeneratorConfig::small_scale();
  random_heavy.ipid_random_prob = 0.45;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    GeneratorConfig tiny = GeneratorConfig::tiny();
    GeneratorConfig small = GeneratorConfig::small_scale();
    GeneratorConfig heavy = random_heavy;
    tiny.seed = small.seed = heavy.seed = seed;
    worlds.push_back({"tiny", tiny, 1});
    worlds.push_back({"small", small, 4});
    worlds.push_back({"small random-heavy", heavy, 4});
  }

  std::size_t random_pairs[3] = {0, 0, 0};
  for (const World& world : worlds) {
    SCOPED_TRACE(std::string(world.name) + " seed " +
                 std::to_string(world.config.seed));
    const Topology topo = generate_topology(world.config);
    std::vector<Ipv4> interfaces;
    for (const auto& router : topo.routers())
      interfaces.insert(interfaces.end(), router.interfaces.begin(),
                        router.interfaces.end());
    std::sort(interfaces.begin(), interfaces.end());
    std::vector<Ipv4> all;
    for (std::size_t k = 0; k < interfaces.size(); k += world.stride)
      all.push_back(interfaces[k]);
    std::vector<Ipv4> first(all.begin(), all.begin() + all.size() / 2);

    AliasResolver screened(topo, world.config.seed + 100);
    UnscreenedResolver reference(topo, world.config.seed + 100);
    for (const std::vector<Ipv4>* targets : {&first, &all}) {
      const AliasSets got = screened.resolve(*targets);
      const AliasSets want = reference.resolve(*targets);
      EXPECT_EQ(got.sets, want.sets);
      EXPECT_EQ(got.unresolved, want.unresolved);
      EXPECT_EQ(screened.probes_sent(), reference.probes_sent());
    }
    for (int k = 0; k < 3; ++k)
      random_pairs[k] += reference.pairs_by_random_sides[k];
  }
  EXPECT_GT(random_pairs[0], 0u);
  EXPECT_GT(random_pairs[1], 0u);
  EXPECT_GT(random_pairs[2], 0u);
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
