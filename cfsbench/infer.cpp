// infer_paper: the paper's batch workflow at the `cfs infer --scale paper`
// defaults (2 content + 2 transit targets, VP fraction 0.6) on a 2-thread
// pool. Each cycle builds a fresh Pipeline (set-up), then maps: initial
// campaign, CFS (up to 100 rounds of Steps 1-4), export. Most of its
// time is alias refresh and follow-ups; the pool exercises the parallel
// paths while leaving host CPUs to spare, so that a neighbour's load
// does not stall the pool's many short parallel passes.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "stats.h"

namespace cfsbench {
namespace {

// At least two maps per run, so every stage of the fastest profile has a
// second map to fall back on.
constexpr std::uint64_t kMinMaps = 4;

struct InferMap {
  MapCycle cycle;
  std::string bytes;
  double export_ms = 0.0;
  [[nodiscard]] double map_ms() const {
    return cycle.campaign_ms + cycle.cfs_ms + export_ms;
  }
};

InferMap infer_map(bool keep_initial) {
  InferMap m{build_map(kInferThreads, keep_initial), {}, 0.0};
  m.export_ms = time_export(m.cycle.report, m.bytes);
  return m;
}

// Wall time of each CFS round (Steps 1-4), from CfsReport::metrics.
std::vector<double> round_ms(const cfs::CfsReport& report) {
  std::vector<double> rounds;
  for (const cfs::IterationMetrics& row : report.metrics.iterations)
    rounds.push_back(row.classify_ms + row.alias_ms + row.reclassify_ms +
                     row.constrain_ms + row.followup_ms);
  return rounds;
}

// Stages of a map ahead of its CFS rounds: the campaign, run_cfs outside
// its rounds (initial classification and set-up), and the export.
constexpr std::ptrdiff_t kStagesBeforeRounds = 3;

// One map as its stages, then each CFS round in order. They add up to
// map_ms().
std::vector<double> map_stages(const InferMap& m) {
  const std::vector<double> rounds = round_ms(m.cycle.report);
  double in_rounds = 0.0;
  for (const double ms : rounds) in_rounds += ms;
  std::vector<double> stages{m.cycle.campaign_ms,
                             m.cycle.cfs_ms - in_rounds, m.export_ms};
  stages.insert(stages.end(), rounds.begin(), rounds.end());
  return stages;
}

// The output check: the exported report must round-trip byte for byte.
void check_export(const InferMap& m, Outcome& out) {
  ++out.attempted;
  if (round_trips(m.bytes)) return;
  ++out.failed;
  std::cerr << "cfsbench: exported report does not round-trip\n";
}

void traced_infer(Outcome& out) {
  // An untraced map first: the reference for the tracing overhead.
  const double untraced_ms = infer_map(false).map_ms();
  cfs::Trace::enable();
  const InferMap m = infer_map(true);
  check_export(m, out);
  read_setup_layers(m.cycle.setup_ms, m.cycle.setup_delta,
                    m.cycle.campaign_delta, out);
  read_cfs_layers(m.cycle.report, out);
  out.metrics["io.export_ms"] = m.export_ms;
  out.metrics["io.report_bytes"] = static_cast<double>(m.bytes.size());
  const cfs::Pipeline& pipeline = *m.cycle.pipeline;
  replay_alias_layers(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.config().cfs.seed, m.cycle.initial,
                      m.cycle.report, out);

  auto& o = out.metrics;
  const double staged = o["campaign.run_ms"] + o["cfs.initial_classify_ms"] +
                        o["cfs.classify_ms"] + o["cfs.reclassify_ms"] +
                        o["cfs.constrain_ms"] + o["cfs.alias_ms"] +
                        o["cfs.followup_ms"] + o["io.export_ms"];
  o["ledger.map_ms"] = m.map_ms();
  o["ledger.coverage_pct"] = 100.0 * staged / m.map_ms();
  o["trace.overhead_pct"] = 100.0 * (m.map_ms() - untraced_ms) / untraced_ms;
  std::cout << "ledger: campaign + cfs stages + export cover "
            << o["ledger.coverage_pct"] << "% of the traced map ("
            << m.map_ms() << " ms)\n";
}

}  // namespace

Outcome run_infer(const Options& options) {
  Outcome out;
  if (options.trace) {
    traced_infer(out);
    return out;
  }
  std::vector<double> setup_s;
  std::vector<std::vector<double>> maps;
  const cfs::Stopwatch window;
  do {
    const InferMap m = infer_map(false);
    setup_s.push_back(m.cycle.setup_ms / 1000.0);
    maps.push_back(map_stages(m));
    std::cout << "map " << maps.size() << ": " << m.map_ms() / 1000.0
              << " s\n";
    check_export(m, out);
    score_map(*m.cycle.pipeline, m.cycle.report, out);
  } while (out.attempted < kMinMaps ||
           window.elapsed_ms() < options.seconds * 1000.0);

  const std::vector<double> profile = fastest_profile(maps);
  const std::vector<double> rounds(profile.begin() + kStagesBeforeRounds,
                                   profile.end());
  // The late rounds are the last quarter: the last ten pass in under a
  // second, short enough for one burst of host noise to cover them.
  const std::vector<double> late(rounds.begin() + std::ssize(rounds) * 3 / 4,
                                 rounds.end());
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["map_s"] =
      std::accumulate(profile.begin(), profile.end(), 0.0) / 1000.0;
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.metrics["step_p50_ms"] = median(rounds);
  out.metrics["step_tail_ms"] = median(late);
  std::cout << "samples: maps=" << maps.size()
            << " rounds per map=" << rounds.size() << "\n";
  return out;
}

}  // namespace cfsbench
