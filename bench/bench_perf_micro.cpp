// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// longest-prefix match, monotonic bounds test, one whole alias resolve,
// AS-path computation, the forwarding tables' build, traceroute synthesis,
// and an end-to-end tiny CFS run.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "alias/mbt.h"
#include "alias/midar.h"
#include "core/pipeline.h"

namespace cfs {
namespace {

void BM_PrefixTrieLookup(benchmark::State& state) {
  Rng rng(1);
  PrefixTrie<std::uint32_t> trie;
  for (int i = 0; i < 10000; ++i)
    trie.insert(Prefix(Ipv4(static_cast<std::uint32_t>(rng.next())),
                       8 + static_cast<int>(rng.uniform(17))),
                static_cast<std::uint32_t>(i));
  std::vector<Ipv4> probes;
  for (int i = 0; i < 1024; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng.next()));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_MonotonicBoundsTest(benchmark::State& state) {
  IpIdSeries a;
  IpIdSeries b;
  for (int i = 0; i < 12; ++i) {
    a.push_back({0.2 * i, static_cast<std::uint16_t>(100 + 37 * i)});
    b.push_back({0.2 * i + 0.1, static_cast<std::uint16_t>(118 + 37 * i)});
  }
  IpIdSeries merged(a.size() + b.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(monotonic_bounds_test(
        a.data(), a.size(), b.data(), b.size(), merged.data()));
  }
}
BENCHMARK(BM_MonotonicBoundsTest);

// One MIDAR resolve of every router interface of the small world, with a
// fresh resolver per iteration so each starts from the same clock and
// Random-IPID stream. Stage 3 (pair corroboration) dominates it.
void BM_AliasResolve(benchmark::State& state) {
  static const Topology topo = generate_topology(GeneratorConfig::small_scale());
  std::vector<Ipv4> targets;
  for (const auto& router : topo.routers())
    targets.insert(targets.end(), router.interfaces.begin(),
                   router.interfaces.end());
  std::sort(targets.begin(), targets.end());
  for (auto _ : state) {
    AliasResolver resolver(topo, 7);
    benchmark::DoNotOptimize(resolver.resolve(targets));
  }
  state.counters["targets"] = static_cast<double>(targets.size());
}
BENCHMARK(BM_AliasResolve)->Unit(benchmark::kMillisecond);

void BM_RoutingTableComputation(benchmark::State& state) {
  static const Topology topo = generate_topology(GeneratorConfig::small_scale());
  std::size_t i = 0;
  for (auto _ : state) {
    // Fresh oracle each round so the per-destination table is recomputed.
    RoutingOracle oracle(topo);
    const auto& ases = topo.ases();
    benchmark::DoNotOptimize(
        oracle.as_path(ases[i % ases.size()].asn, ases.front().asn));
    ++i;
  }
}
BENCHMARK(BM_RoutingTableComputation);

// Building the per-AS all-pairs forwarding tables on the paper-scale
// topology: the set-up cost that makes each traced path a table walk.
void BM_ForwardingEngineBuild(benchmark::State& state) {
  static const Topology topo = generate_topology(GeneratorConfig::paper_scale());
  static const RoutingOracle oracle(topo);
  for (auto _ : state) {
    ForwardingEngine forwarding(topo, oracle);
    benchmark::DoNotOptimize(&forwarding);
  }
  state.counters["routers"] = static_cast<double>(topo.routers().size());
}
BENCHMARK(BM_ForwardingEngineBuild)->Unit(benchmark::kMillisecond);

void BM_TracerouteSynthesis(benchmark::State& state) {
  static Topology topo = generate_topology(GeneratorConfig::small_scale());
  static RoutingOracle oracle(topo);
  static ForwardingEngine forwarding(topo, oracle);
  static TracerouteEngine engine(topo, forwarding, EngineConfig{}, 7);
  VantagePoint vp;
  vp.id = VantagePointId(0);
  vp.attach = topo.routers().front().id;
  vp.asn = topo.routers().front().owner;
  vp.access_ms = 5.0;

  Rng rng(3);
  const auto ases = topo.ases();
  std::vector<Ipv4> targets;
  for (int i = 0; i < 256; ++i) {
    const auto& as = ases[rng.index(ases.size())];
    targets.push_back(as.prefixes.front().at(1000 + i));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.trace_seeded(vp, targets[i & 255], i));
    ++i;
  }
}
BENCHMARK(BM_TracerouteSynthesis);

void BM_CfsTinyEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    PipelineConfig config = PipelineConfig::tiny();
    config.cfs.max_iterations = 5;
    Pipeline pipeline(config);
    auto traces =
        pipeline.initial_campaign(pipeline.default_targets(1, 1), 0.4);
    benchmark::DoNotOptimize(pipeline.run_cfs(std::move(traces)));
  }
}
BENCHMARK(BM_CfsTinyEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cfs

BENCHMARK_MAIN();
