#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "alias/midar.h"
#include "core/bordermap.h"
#include "core/classify.h"
#include "io/export.h"
#include "io/json.h"
#include "serve/handlers.h"
#include "stats.h"

namespace cfsbench {

cfs::PipelineConfig paper_world(int threads) {
  cfs::PipelineConfig config = cfs::PipelineConfig::paper_scale();
  config.threads = threads;
  return config;
}

double peak_rss_mb() {
  return static_cast<double>(cfs::Trace::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double timer_ms(const cfs::MetricsSnapshot& delta, const std::string& name) {
  const auto it = delta.timers.find(name);
  return it == delta.timers.end() ? 0.0 : it->second.total_ms;
}

double counter(const cfs::MetricsSnapshot& delta, const std::string& name) {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
}

MapCycle build_map(int threads, bool keep_initial) {
  MapCycle cycle;
  cfs::MetricsSnapshot baseline = cfs::Trace::metrics();
  {
    cfs::TraceSpan span("bench.pipeline", "bench");
    cycle.pipeline = std::make_unique<cfs::Pipeline>(paper_world(threads));
    cycle.setup_ms = span.stop();
  }
  cycle.setup_delta = cfs::Trace::metrics_since(baseline);
  baseline = cfs::Trace::metrics();
  std::vector<cfs::TraceResult> traces;
  {
    cfs::TraceSpan span("bench.campaign", "bench");
    traces = cycle.pipeline->initial_campaign(
        cycle.pipeline->default_targets(kContentTargets, kTransitTargets),
        kVpFraction);
    cycle.campaign_ms = span.stop();
  }
  cycle.campaign_delta = cfs::Trace::metrics_since(baseline);
  if (keep_initial) cycle.initial = traces;
  {
    cfs::TraceSpan span("bench.run_cfs", "bench");
    cycle.report = cycle.pipeline->run_cfs(std::move(traces));
    cycle.cfs_ms = span.stop();
  }
  return cycle;
}

void score_map(cfs::Pipeline& pipeline, const cfs::CfsReport& report,
               Outcome& out) {
  out.metrics["resolved_frac"] = report.resolved_fraction();
  out.metrics["facility_accuracy"] =
      pipeline.validation().oracle_interface_accuracy(report).accuracy();
}

double time_export(const cfs::CfsReport& report, std::string& bytes) {
  cfs::TraceSpan span("bench.export", "bench");
  bytes = cfs::report_to_json(report).dump();
  return span.stop();
}

double time_publish(const cfs::CfsReport& report) {
  cfs::CfsReport copy = report;
  cfs::TraceSpan span("bench.publish", "bench");
  const auto state =
      cfs::ServeState::from_report(std::move(copy), "pipeline", 0);
  return span.stop();
}

bool round_trips(const std::string& bytes) {
  return cfs::report_to_json(cfs::report_from_json(cfs::parse_json(bytes)))
             .dump() == bytes;
}

void read_setup_layers(double construct_ms,
                       const cfs::MetricsSnapshot& setup_delta,
                       const cfs::MetricsSnapshot& campaign_delta,
                       Outcome& out) {
  auto& o = out.metrics;
  o["pipeline.construct_ms"] = construct_ms;
  o["topology.generate_ms"] = timer_ms(setup_delta, "topology.generate");
  o["campaign.run_ms"] = timer_ms(campaign_delta, "campaign.run");
  o["campaign.traces_kept"] = counter(campaign_delta, "campaign.traces_kept");
  o["campaign.lg_queries"] = counter(campaign_delta, "campaign.lg_queries");
}

void read_cfs_layers(const cfs::CfsReport& report, Outcome& out) {
  const cfs::CfsMetrics& m = report.metrics;
  double sets = 0.0;
  double dirty = 0.0;
  double constrained = 0.0;
  double followup_traces = 0.0;
  for (const cfs::IterationMetrics& row : m.iterations) {
    sets += static_cast<double>(row.alias_sets_processed);
    dirty += static_cast<double>(row.dirty_observations);
    constrained += static_cast<double>(row.constrained_observations);
    followup_traces += static_cast<double>(row.followup_traces);
  }
  auto& o = out.metrics;
  o["cfs.run_ms"] = m.total_ms;
  o["cfs.initial_classify_ms"] = m.initial_classify_ms;
  o["cfs.classify_ms"] = m.classify_ms();
  o["cfs.reclassify_ms"] = m.reclassify_ms();
  o["cfs.constrain_ms"] = m.constrain_ms();
  o["cfs.alias_ms"] = m.alias_ms();
  o["cfs.followup_ms"] = m.followup_ms();
  o["cfs.iterations"] = static_cast<double>(m.iterations.size());
  o["cfs.alias_refreshes"] = static_cast<double>(m.alias_refreshes);
  o["cfs.alias_sets_processed"] = sets;
  o["cfs.reclassified_traces"] = static_cast<double>(m.reclassified_traces);
  o["cfs.dirty_observations"] = dirty;
  o["cfs.constrained_observations"] = constrained;
  o["cfs.followups_launched"] = static_cast<double>(m.followups_launched());
  o["cfs.followups_skipped"] = static_cast<double>(m.followups_skipped());
  o["cfs.followup_traces"] = followup_traces;
  const auto arena = m.registry.gauges.find("cfs.arena_bytes");
  o["cfs.arena_bytes"] =
      arena == m.registry.gauges.end() ? 0.0 : arena->second;
  o["cfs.cache_hit_ratio"] =
      cache_hit_ratio(static_cast<double>(m.replayed_observations),
                      static_cast<double>(m.reclassified_observations));
  // Follow-up yield: interfaces resolved after the first round per
  // thousand follow-up traces.
  const auto& history = report.resolved_per_iteration;
  const double gained =
      history.empty() ? 0.0
                      : static_cast<double>(history.back()) -
                            static_cast<double>(history.front());
  o["cfs.resolved_per_1k_followup_traces"] =
      followup_traces > 0.0 ? 1000.0 * gained / followup_traces : 0.0;
}

void replay_alias_layers(const cfs::Topology& topo,
                         const cfs::IpToAsnService& ip2asn,
                         std::uint64_t alias_seed,
                         const std::vector<cfs::TraceResult>& traces,
                         const cfs::CfsReport& report, Outcome& out) {
  auto& o = out.metrics;
  std::vector<cfs::Ipv4> targets = report.aliases.unresolved;
  for (const auto& set : report.aliases.sets)
    targets.insert(targets.end(), set.begin(), set.end());
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  {
    cfs::AliasResolver resolver(topo, alias_seed);
    cfs::TraceSpan span("bench.alias.resolve", "bench");
    const cfs::AliasSets sets = resolver.resolve(targets);
    o["alias.resolve_ms"] = span.stop();
    o["alias.probes_sent"] = static_cast<double>(resolver.probes_sent());
    o["alias.targets"] = static_cast<double>(targets.size());
    o["alias.multi_sets"] = static_cast<double>(
        std::count_if(sets.sets.begin(), sets.sets.end(),
                      [](const auto& set) { return set.size() >= 2; }));
  }
  {
    cfs::BorderMapper mapper(ip2asn);
    cfs::TraceSpan ingest("bench.border.ingest", "bench");
    mapper.ingest_all(traces);
    o["border.ingest_ms"] = ingest.stop();
    cfs::TraceSpan corrections("bench.border.corrections", "bench");
    const auto fixes = mapper.corrections();
    o["border.corrections_ms"] = corrections.stop();
  }
  {
    const cfs::InterfaceAsnMap raw(ip2asn);
    const cfs::HopClassifier classifier(ip2asn, raw);
    cfs::TraceSpan span("bench.classify.classify_all", "bench");
    const auto observations = classifier.classify_all(traces);
    o["classify.classify_all_ms"] = span.stop();
  }
}

}  // namespace cfsbench
