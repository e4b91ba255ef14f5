#include "alias/midar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/mini_net.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "util/trace.h"

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

// The resolver without its Stage-3 screen and without memoisation, built
// only from public API: every call starts fresh, collects each target's
// estimation series and every corroboration round's 2 * kSamples replies
// on the pure schedule, and runs the full monotonic bounds test. Sets are
// materialised in (velocity, address) order. Also counts the tested pairs.
class UnscreenedResolver {
 public:
  UnscreenedResolver(const Topology& topo, std::uint64_t seed)
      : model_(topo, seed), schedule_(seed) {}

  AliasSets resolve(const std::vector<Ipv4>& targets) {
    using S = MidarSchedule;
    AliasSets out;
    std::vector<Ipv4> addrs;
    {
      std::unordered_map<Ipv4, bool> seen;
      for (const Ipv4 a : targets)
        if (!std::exchange(seen[a], true)) addrs.push_back(a);
    }
    struct Candidate {
      double v;
      Ipv4 addr;
      IpIdModel::CompiledTarget target;
    };
    std::vector<Candidate> candidates;
    for (const Ipv4 addr : addrs) {
      const IpIdModel::CompiledTarget target = model_.compile(addr);
      IpIdSeries series;
      for (int k = 0; k < S::kSamples; ++k) {
        const double t = schedule_.estimation_start(addr) + k * S::kProbeIntervalS;
        if (const auto ipid = IpIdModel::probe_compiled(target, t))
          series.push_back(IpIdSample{t, *ipid});
      }
      const double v = estimate_velocity(series.data(), series.size());
      if (v <= 0.0 || v > kRandomVelocityCutoff)
        out.unresolved.push_back(addr);
      else
        candidates.push_back(Candidate{v, addr, target});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                return x.v < y.v || (x.v == y.v && x.addr < y.addr);
              });

    UnionFind uf(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        if (!velocities_compatible(candidates[i].v, candidates[j].v)) break;
        if (uf.find(i) == uf.find(j)) continue;
        ++pair_tests;
        if (pair_passes(candidates[i], candidates[j])) uf.unite(i, j);
      }

    std::unordered_map<std::size_t, std::size_t> root_to_set;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto [it, inserted] =
          root_to_set.try_emplace(uf.find(i), out.sets.size());
      if (inserted) out.sets.emplace_back();
      out.sets[it->second].push_back(candidates[i].addr);
    }
    return out;
  }

  std::size_t pair_tests = 0;

 private:
  template <class Candidate>
  bool pair_passes(const Candidate& x, const Candidate& y) const {
    using S = MidarSchedule;
    const Candidate& lo = x.addr < y.addr ? x : y;
    const Candidate& hi = x.addr < y.addr ? y : x;
    for (int round = 0; round < S::kCorroborationRounds; ++round) {
      IpIdSeries sa, sb;
      double t = schedule_.round_start(x.addr, y.addr, round);
      const double start = t;
      for (int p = 0; p < 2 * S::kSamples; ++p) {
        t = start + p * S::kProbeIntervalS;
        const Candidate& side = p % 2 == 0 ? lo : hi;
        if (const auto ipid = IpIdModel::probe_compiled(side.target, t))
          (p % 2 == 0 ? sa : sb).push_back(IpIdSample{t, *ipid});
      }
      if (sa.empty() || sb.empty() || !mbt(sa, sb)) return false;
    }
    return true;
  }

  IpIdModel model_;
  MidarSchedule schedule_;
};

// Targets of a generated world: every stride-th interface in address order.
std::vector<Ipv4> world_targets(const Topology& topo, std::size_t stride) {
  std::vector<Ipv4> interfaces;
  for (const auto& router : topo.routers())
    interfaces.insert(interfaces.end(), router.interfaces.begin(),
                      router.interfaces.end());
  std::sort(interfaces.begin(), interfaces.end());
  std::vector<Ipv4> out;
  for (std::size_t k = 0; k < interfaces.size(); k += stride)
    out.push_back(interfaces[k]);
  return out;
}

// Neither the Stage-3 screen nor memoisation changes an answer: on
// generated worlds, one resolver fed growing prefixes of a shuffled target
// list (as CFS refreshes run it), then a list that is not a superset (its
// start-over path), returns on every call the sets and unresolved targets
// of a fresh unscreened reference on the same targets. One world raises
// ipid_random_prob so Random-IP-ID targets are common. The small worlds
// resolve every fourth interface.
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

  std::size_t multi_sets = 0;
  for (const World& world : worlds) {
    SCOPED_TRACE(std::string(world.name) + " seed " +
                 std::to_string(world.config.seed));
    const Topology topo = generate_topology(world.config);
    std::vector<Ipv4> all = world_targets(topo, world.stride);
    Rng rng(world.config.seed);
    rng.shuffle(all);

    std::vector<std::vector<Ipv4>> calls;
    for (const std::size_t n : {all.size() / 4, all.size() / 2, all.size()})
      calls.emplace_back(all.begin(), all.begin() + n);
    calls.emplace_back(all.begin() + all.size() / 3, all.end());  // start over
    calls.push_back(all);

    AliasResolver memoised(topo, world.config.seed + 100);
    for (const std::vector<Ipv4>& targets : calls) {
      SCOPED_TRACE("targets " + std::to_string(targets.size()));
      UnscreenedResolver reference(topo, world.config.seed + 100);
      const AliasSets got = memoised.resolve(targets);
      const AliasSets want = reference.resolve(targets);
      EXPECT_EQ(got.sets, want.sets);
      EXPECT_EQ(got.unresolved, want.unresolved);
      multi_sets += static_cast<std::size_t>(
          std::count_if(got.sets.begin(), got.sets.end(),
                        [](const auto& set) { return set.size() >= 2; }));
    }
  }
  EXPECT_GT(multi_sets, 0u);
}

// Memoisation bound: a growing sequence of calls tests at most 1.2x the
// pairs of one fresh resolve of the final target set.
TEST(Resolver, MemoisedPairTestsBounded) {
  GeneratorConfig config = GeneratorConfig::small_scale();
  config.seed = 5;
  const Topology topo = generate_topology(config);
  std::vector<Ipv4> all = world_targets(topo, 1);
  Rng rng(5);
  rng.shuffle(all);

  // Pair tests of `run`, read off the process-wide registry.
  const auto pair_tests = [](const auto& run) {
    const MetricsSnapshot before = Trace::metrics();
    run();
    const auto& counters = Trace::metrics_since(before).counters;
    const auto it = counters.find("alias.pair_tests");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t memoised_pairs = pair_tests([&] {
    AliasResolver resolver(topo, 11);
    for (std::size_t step = 1; step <= 10; ++step)
      (void)resolver.resolve(std::vector<Ipv4>(
          all.begin(), all.begin() + all.size() * step / 10));
  });
  const std::uint64_t fresh_pairs = pair_tests([&] {
    AliasResolver resolver(topo, 11);
    (void)resolver.resolve(all);
  });
  ASSERT_GT(fresh_pairs, 1000u);
  EXPECT_LE(static_cast<double>(memoised_pairs),
            1.2 * static_cast<double>(fresh_pairs));
}

// A Random-IP-ID series estimates far above the cutoff whatever the target
// count: each target's samples are 0.1 s apart on its own schedule.
TEST(Resolver, RandomIpIdTargetsUnresolvedAtScale) {
  GeneratorConfig config = GeneratorConfig::small_scale();
  config.ipid_random_prob = 0.3;
  const Topology topo = generate_topology(config);
  std::vector<Ipv4> targets;
  std::size_t random_targets = 0;
  for (const auto& router : topo.routers())
    for (const Ipv4 addr : router.interfaces) {
      targets.push_back(addr);
      random_targets += router.ipid == IpIdBehaviour::Random ? 1 : 0;
    }
  ASSERT_GE(targets.size(), 3000u);
  ASSERT_GT(random_targets, 500u);

  AliasResolver resolver(topo, 17);
  const AliasSets sets = resolver.resolve(targets);
  std::size_t random_unresolved = 0;
  for (const Ipv4 addr : sets.unresolved)
    random_unresolved +=
        topo.router(topo.find_interface(addr)->router).ipid ==
                IpIdBehaviour::Random
            ? 1
            : 0;
  EXPECT_EQ(random_unresolved, random_targets);
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
