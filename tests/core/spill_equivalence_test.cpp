// Differential in-memory/out-of-core harness (docs/SCALE.md).
//
// The in-memory engine is the reference implementation: the initial
// campaign accumulates traces in a vector and CFS folds them directly.
// Spill mode streams the same campaign to a column corpus on disk and
// folds it back through mmap — and must reproduce the reference byte for
// byte: same exported report JSON (minus the wall-clock metrics subtree),
// same CfsMetrics counters, at every thread count. The harness also pins
// the replay contract: a saved corpus reloads deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/corpus/corpus.h"
#include "io/export.h"

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
// otherwise the campaign spills to that corpus directory and CFS folds
// the mmap-backed store.
RunResult run_pipeline(PipelineConfig config, int threads,
                       const std::string& spill_dir) {
  config.threads = threads;
  if (!spill_dir.empty()) {
    config.spill.enabled = true;
    config.spill.dir = spill_dir;
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
  const RunResult reference = run_pipeline(config, 1, "");
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = temp_corpus_dir("matrix");
    const RunResult spilled = run_pipeline(config, threads, dir);
    EXPECT_EQ(spilled.json_sans_metrics, reference.json_sans_metrics);
    expect_counters_identical(spilled.report.metrics,
                              reference.report.metrics);
    // The on-disk corpus itself passes deep verification.
    const corpus::CorpusSummary summary = corpus::TraceCorpusReader::verify(dir);
    EXPECT_GT(summary.traces, 0u);
    std::filesystem::remove_all(dir);
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
  // the serial pass, which spilling must leave untouched.
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
  (void)run_pipeline(config, 2, dir);  // writes the corpus

  std::vector<std::string> replays;
  for (int i = 0; i < 2; ++i) {
    Pipeline pipeline(config);
    const CfsReport report = pipeline.run_cfs(pipeline.load_corpus(dir));
    replays.push_back(strip_metrics(report));
  }
  EXPECT_EQ(replays[0], replays[1]);
  std::filesystem::remove_all(dir);
}

TEST(ShardSpillEquivalence, SpillShardCountsSumToCampaignTotal) {
  // Every kept trace is one row of every trace column, and the manifest
  // total agrees with the campaign's own count.
  const PipelineConfig config = base_config(12);
  const std::string dir = temp_corpus_dir("totals");
  const RunResult spilled = run_pipeline(config, 1, dir);
  const auto reader = corpus::TraceCorpusReader::open(dir);
  for (std::size_t c = 0; c < corpus::kTraceColumns; ++c)
    EXPECT_EQ(reader->columns()[c].rows(), reader->traces()) << c;
  EXPECT_EQ(reader->traces(), spilled.report.metrics.initial_traces);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cfs
