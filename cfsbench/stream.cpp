// stream_paper: a paper-scale measurement stream — 8 probe rounds with 5%
// vantage-point churn per round, about 49k events — folded epoch by epoch
// by StreamEngine::fold_epoch with no pool. It uses the core, alias and
// border layers incrementally and serially, with no Step-4 follow-ups, so
// a follow-up or parallel-only change should leave it unchanged. The
// seed picks the epoch partition (first epoch 750-1500 events, then 1500
// each); partition invariance makes the final snapshot, and so its
// accuracy, the same for every seed.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "stats.h"
#include "stream/engine.h"
#include "stream/schedule.h"
#include "util/rng.h"

namespace cfsbench {
namespace {

constexpr std::size_t kEpochEvents = 1500;
constexpr std::uint64_t kMinCycles = 3;

using Epochs = std::vector<std::span<const cfs::StreamEvent>>;

cfs::StreamScheduleConfig schedule_config() {
  cfs::StreamScheduleConfig config;
  config.pipeline = paper_world(1);
  config.rounds = 8;
  config.content_targets = kContentTargets;
  config.transit_targets = kTransitTargets;
  config.churn_fraction = 0.05;
  config.seed = config.pipeline.seed;  // as `cfs stream` derives it
  return config;
}

Epochs partition(const std::vector<cfs::StreamEvent>& events,
                 std::uint64_t seed) {
  Epochs epochs;
  cfs::Rng rng(seed);
  std::size_t size = kEpochEvents / 2 + rng.uniform(kEpochEvents / 2 + 1);
  for (std::size_t begin = 0; begin < events.size();
       begin += size, size = kEpochEvents)
    epochs.emplace_back(events.data() + begin,
                        std::min(size, events.size() - begin));
  return epochs;
}

// Everything a fold needs: the world, the schedule and a fresh engine.
struct StreamSetup {
  std::unique_ptr<cfs::Pipeline> pipeline;
  cfs::StreamSchedule schedule;
  std::unique_ptr<cfs::StreamEngine> engine;
  double pipeline_ms = 0.0;
  double schedule_ms = 0.0;
  double total_ms = 0.0;
  cfs::MetricsSnapshot delta;
};

StreamSetup stream_setup() {
  StreamSetup s;
  const cfs::MetricsSnapshot baseline = cfs::Trace::metrics();
  const cfs::Stopwatch total;
  {
    cfs::TraceSpan span("bench.pipeline", "bench");
    s.pipeline = std::make_unique<cfs::Pipeline>(paper_world(1));
    s.pipeline_ms = span.stop();
  }
  {
    cfs::TraceSpan span("bench.schedule", "bench");
    s.schedule = cfs::generate_stream_schedule(schedule_config());
    s.schedule_ms = span.stop();
  }
  s.engine = std::make_unique<cfs::StreamEngine>(
      s.pipeline->topology(), s.pipeline->ip2asn(), s.pipeline->facility_db());
  s.total_ms = total.elapsed_ms();
  s.delta = cfs::Trace::metrics_since(baseline);
  return s;
}

struct Pass {
  std::vector<double> fold_ms;
  cfs::StreamSnapshot last;
  [[nodiscard]] double total_ms() const {
    double sum = 0.0;
    for (const double ms : fold_ms) sum += ms;
    return sum;
  }
};

Pass fold_pass(cfs::StreamEngine& engine, const Epochs& epochs) {
  Pass pass;
  for (const auto& epoch : epochs) {
    cfs::TraceSpan span("bench.fold_epoch", "bench");
    cfs::StreamSnapshot snapshot = engine.fold_epoch(epoch);
    pass.fold_ms.push_back(span.stop());
    pass.last = std::move(snapshot);
  }
  return pass;
}

// The stream_prefix contract: a fresh engine folding the whole schedule
// as one epoch must reach the same canonical bytes.
std::string one_epoch_canonical(StreamSetup& s) {
  cfs::StreamEngine engine(s.pipeline->topology(), s.pipeline->ip2asn(),
                           s.pipeline->facility_db());
  return engine.fold_epoch(s.schedule.events).canonical;
}

void check_snapshot(const Pass& pass, const std::string& reference,
                    Outcome& out) {
  ++out.attempted;
  if (pass.last.canonical == reference) return;
  ++out.failed;
  std::cerr << "cfsbench: final snapshot differs from the one-epoch fold\n";
}

void traced_stream(const Options& options, Outcome& out) {
  StreamSetup s = stream_setup();
  const Epochs epochs = partition(s.schedule.events, options.seed);
  // An untraced pass first: fold statistics and the overhead reference.
  const Pass untraced = fold_pass(*s.engine, epochs);
  cfs::Trace::enable();
  cfs::StreamEngine engine(s.pipeline->topology(), s.pipeline->ip2asn(),
                           s.pipeline->facility_db());
  const Pass traced = fold_pass(engine, epochs);
  check_snapshot(traced, one_epoch_canonical(s), out);

  auto& o = out.metrics;
  read_setup_layers(s.pipeline_ms, s.delta, s.delta, out);
  o["stream.schedule_ms"] = s.schedule_ms;
  o["stream.fold_first10_ms"] = head10_median(untraced.fold_ms);
  o["stream.fold_tail10_ms"] = tail10_median(untraced.fold_ms);
  o["stream.fold_growth"] =
      o["stream.fold_tail10_ms"] / o["stream.fold_first10_ms"];
  o["stream.epochs"] = static_cast<double>(epochs.size());
  o["stream.events"] = static_cast<double>(s.schedule.events.size());
  o["stream.traces_ingested"] = static_cast<double>(engine.traces_ingested());
  o["stream.canonical_bytes"] =
      static_cast<double>(traced.last.canonical.size());

  std::vector<cfs::TraceResult> traces;
  for (const cfs::StreamEvent& event : s.schedule.events)
    if (event.kind == cfs::StreamEventKind::TraceArrival)
      traces.push_back(event.trace);
  replay_alias_layers(s.pipeline->topology(), s.pipeline->ip2asn(),
                      cfs::StreamEngineConfig{}.seed, traces,
                      traced.last.report, out);
  std::string bytes;
  o["io.export_ms"] = time_export(traced.last.report, bytes);
  o["io.report_bytes"] = static_cast<double>(bytes.size());
  o["serve.state_build_ms"] = time_publish(traced.last.report);
  o["ledger.map_ms"] = traced.total_ms();
  o["trace.overhead_pct"] =
      100.0 * (traced.total_ms() - untraced.total_ms()) / untraced.total_ms();
}

}  // namespace

Outcome run_stream(const Options& options) {
  Outcome out;
  if (options.trace) {
    traced_stream(options, out);
    return out;
  }
  std::vector<double> setup_s;
  std::vector<std::vector<double>> passes;
  std::string reference;
  const cfs::Stopwatch window;
  do {
    StreamSetup s = stream_setup();
    setup_s.push_back(s.total_ms / 1000.0);
    const Epochs epochs = partition(s.schedule.events, options.seed);
    const Pass pass = fold_pass(*s.engine, epochs);
    passes.push_back(pass.fold_ms);
    // The schedule is deterministic, so one reference serves every cycle.
    if (reference.empty()) reference = one_epoch_canonical(s);
    check_snapshot(pass, reference, out);
    score_map(*s.pipeline, pass.last.report, out);
  } while (out.attempted < kMinCycles ||
           window.elapsed_ms() < options.seconds * 1000.0);

  // Every pass folds the same epochs, so its fastest profile is one pass
  // with each epoch at the least time any pass took for it.
  const std::vector<double> profile = fastest_profile(passes);
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["map_s"] =
      std::accumulate(profile.begin(), profile.end(), 0.0) / 1000.0;
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.metrics["step_p50_ms"] = median(profile);
  out.metrics["step_tail_ms"] = tail10_median(profile);
  std::cout << "samples: cycles=" << passes.size()
            << " epochs per pass=" << profile.size() << "\n";
  return out;
}

}  // namespace cfsbench
