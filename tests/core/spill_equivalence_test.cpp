// Differential in-memory/out-of-core harness (docs/SCALE.md).
//
// The in-memory engine is the reference implementation: the initial
// campaign accumulates traces in a vector and CFS folds them directly.
// Spill mode streams the same campaign to a metro-sharded column corpus
// on disk and folds it back through mmap — and must reproduce the
// reference byte for byte: same exported report JSON (minus the
// wall-clock metrics subtree), same CfsMetrics counters, at every
// shards × threads combination. The harness also pins the ShardPlan
// ownership algebra (a pure function of topology and shard count) and
// the replay contract: a saved corpus reloads deterministically, and a
// re-pack at a different shard count replays to the identical report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/corpus/corpus.h"
#include "io/export.h"
#include "traceroute/shard.h"

namespace cfs {
namespace {

std::string temp_corpus_dir(const std::string& stem) {
  static std::atomic<int> counter{0};
  return "/tmp/cfs_spill_eq_" + stem + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter.fetch_add(1));
}

struct RunResult {
  CfsReport report;
  std::string json_sans_metrics;  // pretty JSON with wall-clock subtree cut
};

std::string strip_metrics(const CfsReport& report) {
  JsonValue json = report_to_json(report);
  json.as_object().erase("metrics");  // timings legitimately differ
  return json.pretty();
}

// One full pipeline run. `spill_dir` empty = in-memory reference;
// otherwise the campaign spills to that corpus directory with `shards`
// shards and CFS folds the mmap-backed store.
RunResult run_pipeline(PipelineConfig config, int threads,
                       const std::string& spill_dir, std::uint32_t shards) {
  config.threads = threads;
  if (!spill_dir.empty()) {
    config.spill.enabled = true;
    config.spill.dir = spill_dir;
    config.spill.shards = shards;
  }
  Pipeline pipeline(config);
  corpus::TraceStore traces =
      pipeline.initial_campaign_store(pipeline.default_targets(1, 1), 0.5);
  RunResult r;
  r.report = pipeline.run_cfs(std::move(traces));
  r.json_sans_metrics = strip_metrics(r.report);
  return r;
}

// Every counter (never a timing) must match between engines, as the
// corpus_spill fuzz oracle requires.
void expect_counters_identical(const CfsMetrics& a, const CfsMetrics& b) {
  EXPECT_EQ(counters_json(a).pretty(), counters_json(b).pretty());
}

PipelineConfig base_config(std::uint64_t seed) {
  PipelineConfig config = PipelineConfig::tiny();
  config.cfs.max_iterations = 4;
  config.seed = seed;
  config.generator.seed = seed * 977 + 3;
  return config;
}

void expect_spill_matches_memory(const PipelineConfig& config) {
  const RunResult reference = run_pipeline(config, 1, "", 1);
  for (const std::uint32_t shards : {1u, 3u}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const std::string dir = temp_corpus_dir("matrix");
      const RunResult spilled = run_pipeline(config, threads, dir, shards);
      EXPECT_EQ(spilled.json_sans_metrics, reference.json_sans_metrics);
      expect_counters_identical(spilled.report.metrics,
                                reference.report.metrics);
      // The on-disk corpus itself passes deep verification.
      const corpus::CorpusSummary summary = corpus::TraceCorpusReader::verify(dir);
      EXPECT_EQ(summary.shards, shards);
      EXPECT_GT(summary.traces, 0u);
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(ShardSpillEquivalence, SeedAByteIdenticalAcrossShardsAndThreads) {
  expect_spill_matches_memory(base_config(4242));
}

TEST(ShardSpillEquivalence, SeedBByteIdenticalAcrossShardsAndThreads) {
  expect_spill_matches_memory(base_config(90125));
}

TEST(ShardSpillEquivalence, HeavyFaultPlanByteIdenticalUnderSpill) {
  // The fault paths (retries, failovers, circuit breakers) all live in
  // the serial pass, which sharding must leave untouched.
  PipelineConfig config = base_config(7);
  config.faults.lg_outage_fraction = 0.5;
  config.faults.vp_churn_fraction = 0.2;
  config.faults.probe_timeout_rate = 0.1;
  config.faults.lg_ban_burst = 3;
  config.faults.seed = 5;
  expect_spill_matches_memory(config);
}

TEST(ShardSpillEquivalence, ReplayIsDeterministic) {
  // Replay (folding a saved corpus without re-running the campaign) is
  // deterministic: two replays of the same corpus produce byte-identical
  // reports. Replay is NOT asserted equal to the original full run — the
  // campaign's follow-up noise streams start fresh in replay, which is
  // the documented contract (docs/SCALE.md).
  const PipelineConfig config = base_config(31);
  const std::string dir = temp_corpus_dir("replay");
  (void)run_pipeline(config, 2, dir, 3);  // writes the corpus

  std::vector<std::string> replays;
  for (int i = 0; i < 2; ++i) {
    Pipeline pipeline(config);
    const CfsReport report = pipeline.run_cfs(pipeline.load_corpus(dir));
    replays.push_back(strip_metrics(report));
  }
  EXPECT_EQ(replays[0], replays[1]);
  std::filesystem::remove_all(dir);
}

TEST(ShardSpillEquivalence, ReplayIsShardCountInvariant) {
  // The same campaign packed at different shard counts replays to the
  // identical report: global seq order makes the shard layout invisible
  // to CFS.
  const PipelineConfig config = base_config(58);
  std::vector<std::string> reports;
  for (const std::uint32_t shards : {1u, 4u}) {
    const std::string dir = temp_corpus_dir("invariant");
    (void)run_pipeline(config, 1, dir, shards);
    Pipeline pipeline(config);
    reports.push_back(strip_metrics(pipeline.run_cfs(pipeline.load_corpus(dir))));
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(ShardSpillEquivalence, SpillShardCountsSumToCampaignTotal) {
  const PipelineConfig config = base_config(12);
  const std::string dir = temp_corpus_dir("totals");
  const RunResult spilled = run_pipeline(config, 1, dir, 3);
  const auto reader = corpus::TraceCorpusReader::open(dir);
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < reader->shards(); ++s)
    sum += reader->shard(s).traces();
  EXPECT_EQ(sum, reader->traces());
  EXPECT_EQ(reader->traces(), spilled.report.metrics.initial_traces);
  std::filesystem::remove_all(dir);
}

TEST(ShardPlanTest, MetrosPartitionExactlyOnceAcrossShards) {
  PipelineConfig config = base_config(3);
  Pipeline pipeline(config);
  const Topology& topo = pipeline.topology();
  for (const std::uint32_t shards : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ShardPlan plan = ShardPlan::build(topo, shards);
    EXPECT_EQ(plan.shards(), shards);
    // Every metro is owned by exactly one shard: shard_of() names an
    // in-range owner for each, and the per-shard counts add up.
    std::vector<std::size_t> owned(shards, 0);
    for (const Metro& metro : topo.metros()) {
      const std::uint32_t s = plan.shard_of(metro.id);
      ASSERT_LT(s, shards) << "metro " << metro.id.value;
      ++owned[s];
    }
    std::size_t owned_total = 0;
    for (const std::size_t n : owned) owned_total += n;
    EXPECT_EQ(owned_total, topo.metros().size());
  }
}

TEST(ShardPlanTest, PlanIsAPureFunctionOfTopologyAndShardCount) {
  PipelineConfig config = base_config(3);
  Pipeline a(config);
  Pipeline b(config);
  const ShardPlan plan_a = ShardPlan::build(a.topology(), 3);
  const ShardPlan plan_b = ShardPlan::build(b.topology(), 3);
  for (const auto& metro : a.topology().metros())
    EXPECT_EQ(plan_a.shard_of(metro.id), plan_b.shard_of(metro.id));
}

TEST(ShardPlanTest, RoundRobinDealBalancesWithinOne) {
  PipelineConfig config = base_config(5);
  Pipeline pipeline(config);
  const ShardPlan plan = ShardPlan::build(pipeline.topology(), 3);
  std::vector<std::size_t> owned(3, 0);
  for (const Metro& metro : pipeline.topology().metros())
    ++owned[plan.shard_of(metro.id)];
  const auto [lo, hi] = std::minmax_element(owned.begin(), owned.end());
  EXPECT_LE(*hi - *lo, 1u);
}

TEST(ShardPlanTest, UnknownMetroFallsBackToModulo) {
  PipelineConfig config = base_config(5);
  Pipeline pipeline(config);
  const ShardPlan plan = ShardPlan::build(pipeline.topology(), 4);
  // An id far outside the topology still gets a total, stable owner.
  EXPECT_EQ(plan.shard_of(MetroId(1'000'003)), 1'000'003u % 4u);
}

}  // namespace
}  // namespace cfs
