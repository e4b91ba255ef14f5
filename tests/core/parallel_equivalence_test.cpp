// Differential serial/parallel harness (docs/PARALLELISM.md).
//
// `--threads 1` is the reference implementation: no pool is constructed
// and every trace is computed inside the serial pass. Any other thread
// count speculates traces in parallel and must reproduce the reference
// byte for byte — same exported report JSON (minus the wall-clock metrics
// subtree), same CfsMetrics counters, same fault-plane accounting. The
// harness runs the full pipeline at 1/2/4/8 threads over three seeds,
// one of them under the PR-2 heavy-fault plan (50% LG outage, 20% VP
// churn), because the fault paths (retries, failovers, circuit breakers)
// are exactly where speculative execution could drift from serial.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "io/export.h"
#include "util/trace.h"

namespace cfs {
namespace {

struct RunResult {
  CfsReport report;
  std::string json_sans_metrics;  // pretty JSON with wall-clock subtree cut
  bool had_pool = false;
};

RunResult run_at(PipelineConfig config, int threads) {
  config.threads = threads;
  Pipeline pipeline(config);
  RunResult r;
  r.had_pool = pipeline.thread_pool() != nullptr;
  auto traces = pipeline.initial_campaign(pipeline.default_targets(1, 1), 0.5);
  r.report = pipeline.run_cfs(std::move(traces));
  JsonValue json = report_to_json(r.report);
  json.as_object().erase("metrics");  // timings legitimately differ
  r.json_sans_metrics = json.pretty();
  return r;
}

// Every counter (never a timing) must match between engines.
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

PipelineConfig heavy_fault_config(std::uint64_t seed) {
  // The PR-2 acceptance plan: half the looking glasses suffer an outage,
  // a fifth of the VPs churn away, plus timeouts and bans for good
  // measure — maximal pressure on the retry/failover serial bookkeeping.
  PipelineConfig config = base_config(seed);
  config.faults.lg_outage_fraction = 0.5;
  config.faults.vp_churn_fraction = 0.2;
  config.faults.probe_timeout_rate = 0.1;
  config.faults.lg_ban_burst = 3;
  config.faults.seed = 5;
  return config;
}

void expect_equivalent_across_thread_counts(const PipelineConfig& config) {
  const RunResult reference = run_at(config, 1);
  // The reference must not even construct a pool.
  EXPECT_FALSE(reference.had_pool);
  EXPECT_EQ(reference.report.metrics.threads, 1u);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunResult parallel = run_at(config, threads);
    EXPECT_TRUE(parallel.had_pool);
    EXPECT_EQ(parallel.report.metrics.threads,
              static_cast<std::size_t>(threads));
    EXPECT_EQ(parallel.json_sans_metrics, reference.json_sans_metrics);
    expect_counters_identical(parallel.report.metrics,
                              reference.report.metrics);
  }
}

TEST(ParallelEquivalence, SeedAByteIdenticalAcrossThreadCounts) {
  expect_equivalent_across_thread_counts(base_config(4242));
}

TEST(ParallelEquivalence, SeedBByteIdenticalAcrossThreadCounts) {
  expect_equivalent_across_thread_counts(base_config(90125));
}

TEST(ParallelEquivalence, HeavyFaultPlanByteIdenticalAcrossThreadCounts) {
  expect_equivalent_across_thread_counts(heavy_fault_config(7));
}

TEST(ParallelEquivalence, ThreadsOneConstructsNoPool) {
  PipelineConfig config = base_config(1);
  config.threads = 1;
  Pipeline pipeline(config);
  EXPECT_EQ(pipeline.thread_pool(), nullptr);
  EXPECT_EQ(pipeline.campaign().pool(), nullptr);
  EXPECT_EQ(pipeline.threads(), 1);
}

TEST(ParallelEquivalence, ThreadsZeroResolvesToHardwareConcurrency) {
  PipelineConfig config = base_config(1);
  config.threads = 0;
  Pipeline pipeline(config);
  EXPECT_EQ(pipeline.threads(),
            static_cast<int>(ThreadPool::hardware_threads()));
  if (pipeline.threads() > 1) {
    ASSERT_NE(pipeline.thread_pool(), nullptr);
    EXPECT_EQ(pipeline.thread_pool()->workers(),
              ThreadPool::hardware_threads());
    EXPECT_EQ(pipeline.campaign().pool(), pipeline.thread_pool());
  }
}

TEST(ParallelEquivalence, TracingDoesNotPerturbReports) {
  // The observability contract (docs/OBSERVABILITY.md): enabling the span
  // timeline must not move a single byte of the report, at any thread
  // count — spans carry counts and ordinals only, wall clock lives solely
  // in the trace file and the excluded metrics subtree.
  const PipelineConfig config = heavy_fault_config(11);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Trace::disable();
    Trace::clear_events();
    const RunResult untraced = run_at(config, threads);
    Trace::enable();
    const RunResult traced = run_at(config, threads);
    Trace::disable();
    EXPECT_EQ(traced.json_sans_metrics, untraced.json_sans_metrics);
    expect_counters_identical(traced.report.metrics,
                              untraced.report.metrics);

    // The traced run actually produced a timeline covering the pipeline
    // end to end: campaign, classification, constraint fold, export.
    const auto events = Trace::events();
    const auto has = [&](const char* name) {
      return std::any_of(events.begin(), events.end(),
                         [&](const TraceEvent& e) { return e.name == name; });
    };
    EXPECT_TRUE(has("topology.generate"));
    EXPECT_TRUE(has("campaign.run"));
    EXPECT_TRUE(has("cfs.classify"));
    EXPECT_TRUE(has("cfs.constrain"));
    EXPECT_TRUE(has("cfs.run"));
    // json_sans_metrics serialises the report inside run_at, so the export
    // span is on the timeline too.
    EXPECT_TRUE(has("export.report"));
    if (threads > 1) {
      // Speculation fans out across workers in chunks; the initial
      // campaign is far above the parallel threshold at this corpus size.
      EXPECT_TRUE(has("campaign.speculate_chunk"));
      // Classification parallelises above its 32-trace threshold.
      if (traced.report.traces_used >= 32) {
        EXPECT_TRUE(has("cfs.classify_chunk"));
      }
    }
    Trace::clear_events();
  }
}

TEST(ParallelEquivalence, RepeatedParallelRunsReplayByteIdentical) {
  // Parallel mode must also be self-consistent run to run, not merely
  // equal to serial once: scheduling nondeterminism leaking into results
  // would show up here first.
  const PipelineConfig config = heavy_fault_config(21);
  const RunResult r1 = run_at(config, 4);
  const RunResult r2 = run_at(config, 4);
  EXPECT_EQ(r1.json_sans_metrics, r2.json_sans_metrics);
  expect_counters_identical(r1.report.metrics, r2.report.metrics);
}

}  // namespace
}  // namespace cfs
