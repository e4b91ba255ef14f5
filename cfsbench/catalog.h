// The benchmark's metric catalog: every end-to-end and per-layer metric,
// by name and unit, in print order. run.py checks the printed names and
// units against BENCHMARK.json, so the two cannot drift apart. Which
// end-to-end metric each layer should move, and on which workload, is the
// table in README.md.
#pragma once

namespace cfsbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every workload from its untraced runs; README.md gives
// each one's reading per workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"map_s", "s"},
    {"peak_rss_mb", "MB"},
    {"resolved_frac", "ratio"},
    {"facility_accuracy", "ratio"},
    {"step_p50_ms", "ms"},
    {"step_tail_ms", "ms"},
};

// Reported by every workload from its traced run; a layer the workload
// does not exercise reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"host.nproc", "count"},
    {"host.pool_threads", "count"},
    {"host.connections", "count"},
    {"pipeline.construct_ms", "ms"},
    {"topology.generate_ms", "ms"},
    {"campaign.run_ms", "ms"},
    {"campaign.traces_kept", "count"},
    {"campaign.lg_queries", "count"},
    {"cfs.run_ms", "ms"},
    {"cfs.initial_classify_ms", "ms"},
    {"cfs.classify_ms", "ms"},
    {"cfs.reclassify_ms", "ms"},
    {"cfs.constrain_ms", "ms"},
    {"cfs.alias_ms", "ms"},
    {"cfs.followup_ms", "ms"},
    {"cfs.iterations", "count"},
    {"cfs.alias_refreshes", "count"},
    {"cfs.alias_sets_processed", "count"},
    {"cfs.reclassified_traces", "count"},
    {"cfs.dirty_observations", "count"},
    {"cfs.constrained_observations", "count"},
    {"cfs.followups_launched", "count"},
    {"cfs.followups_skipped", "count"},
    {"cfs.followup_traces", "count"},
    {"cfs.arena_bytes", "bytes"},
    {"cfs.cache_hit_ratio", "ratio"},
    {"cfs.resolved_per_1k_followup_traces", "count"},
    {"alias.resolve_ms", "ms"},
    {"alias.probes_sent", "count"},
    {"alias.targets", "count"},
    {"alias.multi_sets", "count"},
    {"border.ingest_ms", "ms"},
    {"border.corrections_ms", "ms"},
    {"classify.classify_all_ms", "ms"},
    {"io.export_ms", "ms"},
    {"io.report_bytes", "bytes"},
    {"serve.qps", "1/s"},
    {"serve.lookup_p50_us", "us"},
    {"serve.lookup_p99_us", "us"},
    {"serve.lookup_samples", "count"},
    {"serve.peers_at_p50_us", "us"},
    {"serve.peers_at_p99_us", "us"},
    {"serve.peers_at_samples", "count"},
    {"serve.reload_p50_ms", "ms"},
    {"serve.reload_samples", "count"},
    {"serve.handle_lookup_us", "us"},
    {"serve.handle_peers_at_us", "us"},
    {"serve.transport_lookup_us", "us"},
    {"serve.state_build_ms", "ms"},
    {"serve.state_load_ms", "ms"},
    {"serve.response_bytes_lookup", "bytes"},
    {"serve.response_bytes_peers_at", "bytes"},
    {"serve.generation_rss_mb", "MB"},
    {"stream.schedule_ms", "ms"},
    {"stream.fold_first10_ms", "ms"},
    {"stream.fold_tail10_ms", "ms"},
    {"stream.fold_growth", "ratio"},
    {"stream.epochs", "count"},
    {"stream.events", "count"},
    {"stream.traces_ingested", "count"},
    {"stream.canonical_bytes", "bytes"},
    {"ledger.map_ms", "ms"},
    {"ledger.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

}  // namespace cfsbench
