// cfs — command-line front end to the library.
//
//   cfs generate  [--scale tiny|small|paper] [--seed N] [--out FILE]
//       Generate a ground-truth ecosystem and export it as JSON.
//
//   cfs census    [--scale ...] [--seed N]
//       Print the Figure-3-style census of a generated world.
//
//   cfs infer     [--scale ...] [--seed N] [--content N] [--transit N]
//                 [--vp-fraction F] [--report FILE] [--threads N]
//                 [--trace-out FILE]
//                 [--spill --corpus-dir DIR]
//                 [--corpus-dir DIR]
//                 [--lg-outage F] [--lg-ban-burst N] [--vp-churn F]
//                 [--probe-timeout F] [--pdb-withheld F] [--dns-withheld F]
//                 [--geoip-withheld F] [--fault-seed N]
//       Run the measurement campaign and Constrained Facility Search;
//       print a summary, optionally export the full report as JSON. The
//       fault flags inject degraded-mode conditions (docs/ROBUSTNESS.md).
//       --threads 0 (the default) uses hardware concurrency; reports are
//       byte-identical at every thread count (docs/PARALLELISM.md).
//       --trace-out writes a Chrome trace_event timeline of the run,
//       loadable in chrome://tracing or Perfetto; enabling it never
//       changes the report (docs/OBSERVABILITY.md).
//       --spill streams the campaign to an on-disk column corpus under
//       --corpus-dir and runs CFS out of core over the mmap'd corpus; the
//       report is byte-identical to the in-memory engine (docs/SCALE.md).
//       --corpus-dir WITHOUT --spill replays a previously written corpus
//       (the campaign is skipped; pass the matching --scale/--seed).
//
//   cfs corpus    <pack|inspect|verify> --corpus-dir DIR
//                 [pack: the infer campaign knobs]
//       pack runs the initial campaign in spill mode and leaves the
//       corpus behind; inspect prints the manifest + per-column footprint;
//       verify re-hashes every column payload and checks the structural
//       invariants (cross-column row counts, hop tiling).
//       A missing or damaged corpus exits 6 with a structured error
//       naming the file and byte offset (docs/SCALE.md).
//
//   cfs validate  [--scale ...] [--seed N] [--content N] [--transit N]
//                 [--threads N] [--trace-out FILE]
//                 [fault flags as for infer]
//       Run CFS and score it against every validation source + the oracle.
//
//   cfs diff A.json B.json [--max N] [--ignore p1,p2]
//       Structured comparison of two exported JSON documents (reports or
//       topologies): prints the first divergent path plus up to --max
//       differences, with --ignore dropping subtrees by path prefix
//       (e.g. --ignore /metrics). Exit 0 identical, 1 different.
//
//   cfs stream --generate --events-out FILE [--scale ...] [--seed N]
//              [--rounds N] [--outage-round N] [--pdb-delta-round N]
//              [--churn F] [--content N] [--transit N] [--vp-fraction F]
//       Generate a timestamped event schedule (probe rounds with optional
//       mid-stream disruptions) and write it as JSON, ground truth
//       included (docs/STREAMING.md).
//
//   cfs stream [--events FILE] [--epoch-events N] [--threads N]
//              [--diff] [--detect] [--report FILE] [--bench-out FILE]
//              [schedule knobs as above when --events is absent]
//       Fold a schedule epoch-by-epoch through the streaming engine and
//       print one line per epoch. --events loads a schedule written by
//       --generate (pass the SAME --scale/--seed the schedule was
//       generated with — the engine rebuilds that world); without it the
//       schedule is generated in-process from the same knobs. --diff
//       prints the structured report diff between consecutive epochs
//       (exit stays 0); --detect prints disruption alarms; --bench-out
//       scores detection latency and localization against the schedule's
//       ground truth and writes the BENCH_stream.json document.
//
//   cfs serve --socket PATH [--scale ...] [--seed N] [--content N]
//             [--transit N] [--vp-fraction F] [--threads N]
//             [--load-report FILE] [--max-frame-bytes N]
//             [--stream FILE] [--epoch-events N] [--epoch-interval-ms N]
//             [--max-connections N] [--idle-timeout-ms N]
//             [--write-stall-timeout-ms N] [--request-deadline-ms N]
//       Resident inference service: run the pipeline once (or load a
//       previously exported report with --load-report), then answer
//       lookup/peers_at/diff/metrics/reload/epoch/subscribe/shutdown
//       queries over a framed-JSON Unix-socket protocol until a shutdown
//       request, SIGINT or SIGTERM drains the daemon (docs/SERVE.md).
//       --stream folds an event schedule (cfs stream --generate; pass the
//       matching --scale/--seed) in a background thread and publishes one
//       state generation per epoch through the same swap used by reload;
//       `subscribe` long-polls for the next generation. The last four
//       flags are the overload-control limits (0 = off; docs/SERVE.md
//       "Overload and degradation policy").
//
//   cfs query --socket PATH <op> [--ip A.B.C.D] [--facility N]
//             [--snapshot FILE] [--report FILE] [--max N] [--ignore p1,p2]
//             [--id N] [--raw JSON] [--pretty] [--timeout-ms N]
//             [--retries N] [--retry-backoff-ms N]
//             [--min-generation N] [--wait-ms N]
//       One-shot client for a running daemon: sends a single request and
//       prints the response document. Exit 0 when the daemon answered
//       ok, 1 when it answered with a structured error. --timeout-ms
//       bounds connect/send/read each (default 0 = wait forever); only
//       the connect phase retries (--retries, exponential backoff from
//       --retry-backoff-ms) — a request already sent is never re-sent.
//
// Exit codes: 0 success (including --help/bare `cfs`, which print usage
// on stdout), 1 documents differ (diff) or the daemon answered an error
// (query), 3 usage or flag error — unknown command, stray positional,
// malformed value, unknown or repeated flag — with diagnostics on
// stderr, 4 runtime failure, 5 query deadline expired (--timeout-ms)
// while the daemon stayed silent, 6 corpus rejected — missing, truncated,
// bit-flipped or version-skewed on-disk trace corpus (docs/SCALE.md).
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/diff.h"
#include "core/multilateral.h"
#include "core/pipeline.h"
#include "data/corpus/corpus.h"
#include "io/export.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stream/detect.h"
#include "stream/engine.h"
#include "stream/schedule.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/trace.h"

using namespace cfs;

namespace {

PipelineConfig config_from(const Flags& flags) {
  const std::string scale = flags.get("scale", "small");
  PipelineConfig config;
  if (scale == "tiny")
    config = PipelineConfig::tiny();
  else if (scale == "small")
    config = PipelineConfig::small_scale();
  else if (scale == "paper")
    config = PipelineConfig::paper_scale();
  else
    throw std::invalid_argument("unknown --scale '" + scale +
                                "' (tiny|small|paper)");
  if (flags.has("seed")) {
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
    config.seed = seed;
    config.generator.seed = seed * 977 + 3;
  }
  return config;
}

void reject_unknown(const Flags& flags) {
  const std::string message = flags.unknown_flags_message();
  if (!message.empty()) throw std::invalid_argument(message);
}

// Commands that take no positional arguments reject strays loudly; a
// silently ignored `cfs infer smal` (meant as --scale small) used to look
// like a successful default-config run.
void reject_positional(const Flags& flags) {
  if (!flags.positional().empty())
    throw std::invalid_argument("unexpected positional argument '" +
                                flags.positional().front() + "'");
}

// --trace-out=FILE turns the span timeline on for the whole run; the
// collected events are flushed here after the command succeeds. The
// registry itself is always on, so tracing changes nothing but the
// existence of this extra file (docs/OBSERVABILITY.md).
struct TraceOutput {
  explicit TraceOutput(const Flags& flags)
      : path(flags.get("trace-out", "")) {
    if (!path.empty()) Trace::enable();
  }
  void flush() const {
    if (path.empty()) return;
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write " + path);
    Trace::write_chrome_trace(file);
    std::cout << "trace written to " << path << " ("
              << Trace::events().size()
              << " spans; open in chrome://tracing or ui.perfetto.dev)\n";
  }
  std::string path;
};

int cmd_generate(const Flags& flags) {
  const PipelineConfig config = config_from(flags);
  const std::string out = flags.get("out", "");
  reject_positional(flags);
  reject_unknown(flags);

  const Topology topo = generate_topology(config.generator);
  std::cout << "generated: " << topo.facilities().size() << " facilities, "
            << topo.ixps().size() << " IXPs, " << topo.ases().size()
            << " ASes, " << topo.routers().size() << " routers, "
            << topo.links().size() << " links\n";
  if (!out.empty()) {
    write_topology_file(out, topo);  // atomic: temp + rename
    std::cout << "topology written to " << out << "\n";
  }
  return 0;
}

int cmd_census(const Flags& flags) {
  const PipelineConfig config = config_from(flags);
  reject_positional(flags);
  reject_unknown(flags);
  const Topology topo = generate_topology(config.generator);

  std::vector<std::pair<std::size_t, MetroId>> by_metro;
  for (const auto& metro : topo.metros()) {
    std::size_t count = 0;
    for (const auto& fac : topo.facilities()) count += fac.metro == metro.id;
    by_metro.emplace_back(count, metro.id);
  }
  std::sort(by_metro.rbegin(), by_metro.rend());
  Table table({"Metro", "Facilities"});
  for (const auto& [count, metro] : by_metro) {
    if (count < 5) break;
    table.add_row({topo.metro(metro).name, Table::cell(std::uint64_t{count})});
  }
  table.print(std::cout);
  return 0;
}

// Fault-injection knobs shared by fault-aware commands; zero everything
// means no FaultPlane is constructed at all.
void faults_from(const Flags& flags, FaultPlan& plan) {
  plan.lg_outage_fraction = flags.get_double("lg-outage", 0.0);
  plan.lg_ban_burst = static_cast<int>(flags.get_int("lg-ban-burst", 0));
  plan.vp_churn_fraction = flags.get_double("vp-churn", 0.0);
  plan.probe_timeout_rate = flags.get_double("probe-timeout", 0.0);
  plan.peeringdb_withheld = flags.get_double("pdb-withheld", 0.0);
  plan.dns_withheld = flags.get_double("dns-withheld", 0.0);
  plan.geoip_withheld = flags.get_double("geoip-withheld", 0.0);
  plan.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 0));
}

// Spill knobs of `infer`. --spill without a directory is a usage error.
void spill_from(const Flags& flags, PipelineConfig& config) {
  config.spill.enabled = flags.get_bool("spill", false);
  config.spill.dir = flags.get("corpus-dir", "");
  if (config.spill.enabled && config.spill.dir.empty())
    throw std::invalid_argument("--spill requires --corpus-dir DIR");
}

int cmd_infer(const Flags& flags) {
  PipelineConfig config = config_from(flags);
  const int content = static_cast<int>(flags.get_int("content", 2));
  const int transit = static_cast<int>(flags.get_int("transit", 2));
  const double vp_fraction = flags.get_double("vp-fraction", 0.6);
  const std::string report_path = flags.get("report", "");
  config.threads = static_cast<int>(flags.get_int("threads", 0));
  faults_from(flags, config.faults);
  spill_from(flags, config);
  const TraceOutput trace_out(flags);
  reject_positional(flags);
  reject_unknown(flags);

  Pipeline pipeline(config);
  // Three trace sources, one CFS: spill streams the campaign to disk and
  // mmaps it back; a bare --corpus-dir replays an existing corpus (no
  // campaign); default keeps everything in memory.
  corpus::TraceStore traces;
  if (config.spill.enabled) {
    traces = pipeline.initial_campaign_store(
        pipeline.default_targets(content, transit), vp_fraction);
    std::cout << "corpus spilled to " << config.spill.dir << " ("
              << traces.size() << " traces)\n";
  } else if (!config.spill.dir.empty()) {
    traces = pipeline.load_corpus(config.spill.dir);
    std::cout << "corpus replayed from " << config.spill.dir << " ("
              << traces.size() << " traces)\n";
  } else {
    traces = pipeline.initial_campaign_store(
        pipeline.default_targets(content, transit), vp_fraction);
  }
  const CfsReport report = pipeline.run_cfs(std::move(traces));

  Table table({"Metric", "Value"});
  table.add_row({"Traces used", Table::cell(std::uint64_t{report.traces_used})});
  table.add_row({"Observed peering interfaces",
                 Table::cell(std::uint64_t{report.observed_interfaces()})});
  table.add_row({"Resolved to a facility",
                 Table::percent(report.resolved_fraction())});
  table.add_row({"City-constrained (unresolved)",
                 Table::cell(std::uint64_t{
                     report.city_constrained(pipeline.topology())})});
  table.add_row({"Iterations", Table::cell(std::uint64_t{report.iterations_run})});
  const auto stats = report.router_stats();
  table.add_row({"Observed routers", Table::cell(std::uint64_t{stats.routers})});
  table.add_row({"Multi-role routers",
                 Table::cell(std::uint64_t{stats.multi_role})});
  table.print(std::cout);

  const CfsMetrics& metrics = report.metrics;
  std::cout << "\nengine: " << (metrics.incremental ? "incremental" : "full")
            << "  |  threads: " << metrics.threads
            << "  |  campaign wall: " << Table::cell(metrics.faults.wall_ms)
            << " ms  |  initial ingest: " << metrics.initial_traces
            << " traces -> " << metrics.initial_observations
            << " observations in " << Table::cell(metrics.initial_classify_ms)
            << " ms  |  refreshes: " << metrics.alias_refreshes
            << " (re-classified " << metrics.reclassified_observations
            << " obs, replayed " << metrics.replayed_observations
            << ")  |  total: " << Table::cell(metrics.total_ms) << " ms\n";

  // Measurement-plane attrition: what the campaign tried vs what survived,
  // plus everything the fault plane made it do about the difference.
  const FaultMetrics& fm = metrics.faults;
  std::cout << "measurement plane: " << fm.traces_attempted << " attempted, "
            << fm.traces_kept << " kept, " << fm.traces_unreachable
            << " unreachable, " << fm.probes_abandoned << " abandoned, "
            << fm.probes_skipped_open_circuit << " skipped (open circuit)"
            << "  |  retries: " << fm.retries
            << "  failovers: " << fm.failovers
            << "  circuits opened: " << fm.circuits_opened
            << "  LG bans: " << fm.lg_bans
            << "  hop timeouts: " << fm.probe_timeouts
            << "  records withheld: " << fm.records_withheld << "\n";

  Table stages({"Iter", "Dirty", "Constrained", "Sets", "Launched", "Skipped",
                "Resolved", "Constrain ms", "Follow-up ms", "Classify ms",
                "Refresh ms"});
  for (const IterationMetrics& row : metrics.iterations) {
    stages.add_row(
        {Table::cell(std::uint64_t{row.iteration}),
         Table::cell(std::uint64_t{row.dirty_observations}),
         Table::cell(std::uint64_t{row.constrained_observations}),
         Table::cell(std::uint64_t{row.alias_sets_processed}),
         Table::cell(std::uint64_t{row.followups_launched}),
         Table::cell(std::uint64_t{row.followups_skipped}),
         Table::cell(std::uint64_t{row.resolved}),
         Table::cell(row.constrain_ms), Table::cell(row.followup_ms),
         Table::cell(row.classify_ms),
         Table::cell(row.alias_ms + row.reclassify_ms)});
  }
  stages.print(std::cout);

  // The same numbers the JSON report carries under metrics.registry: the
  // uniform view over every instrumented stage of this run.
  std::cout << "\n";
  Trace::write_summary(std::cout, report.metrics.registry);

  if (!report_path.empty()) {
    // Atomic temp + rename: a resident daemon `reload`ing this path mid-
    // write sees the old file or the new one, never a torn prefix.
    write_report_file(report_path, report);
    std::cout << "report written to " << report_path << "\n";
  }
  trace_out.flush();
  return 0;
}

// cfs corpus <pack|inspect|verify> --corpus-dir DIR — tooling around the
// on-disk trace corpus (docs/SCALE.md). pack is the campaign half of
// `infer --spill` without the CFS half; inspect is cheap (footers only);
// verify re-hashes every payload byte.
int cmd_corpus(const Flags& flags) {
  const auto& positional = flags.positional();
  if (positional.size() != 1)
    throw std::invalid_argument(
        "corpus takes exactly one op: cfs corpus <pack|inspect|verify> "
        "--corpus-dir DIR");
  const std::string op = positional.front();
  const std::string dir = flags.get("corpus-dir", "");
  if (dir.empty())
    throw std::invalid_argument("corpus requires --corpus-dir DIR");

  if (op == "pack") {
    PipelineConfig config = config_from(flags);
    const int content = static_cast<int>(flags.get_int("content", 2));
    const int transit = static_cast<int>(flags.get_int("transit", 2));
    const double vp_fraction = flags.get_double("vp-fraction", 0.6);
    config.threads = static_cast<int>(flags.get_int("threads", 0));
    config.spill.enabled = true;
    config.spill.dir = dir;
    faults_from(flags, config.faults);
    reject_unknown(flags);

    Pipeline pipeline(config);
    const auto store = pipeline.initial_campaign_store(
        pipeline.default_targets(content, transit), vp_fraction);
    const corpus::CorpusSummary summary = store.reader()->summary();
    std::cout << "packed " << summary.traces << " traces (" << summary.hops
              << " hops) at " << dir << "\n";
    return 0;
  }

  reject_unknown(flags);
  if (op == "inspect") {
    const auto reader = corpus::TraceCorpusReader::open(dir);
    const corpus::CorpusSummary summary = reader->summary();
    std::cout << "corpus " << dir << ": format v" << corpus::kColumnVersion << ", "
              << summary.traces << " traces, " << summary.hops << " hops\n";
    Table table({"Column", "Rows", "Bytes"});
    for (const corpus::MappedColumn& column : reader->columns())
      table.add_row({std::filesystem::path(column.path()).filename().string(),
                     Table::cell(column.rows()),
                     Table::cell(column.layout().file_bytes())});
    table.print(std::cout);
    return 0;
  }
  if (op == "verify") {
    const corpus::CorpusSummary summary = corpus::TraceCorpusReader::verify(dir);
    std::cout << "corpus OK: " << summary.traces << " traces (" << summary.hops
              << " hops), all payload hashes match\n";
    return 0;
  }
  throw std::invalid_argument("unknown corpus op '" + op +
                              "' (pack|inspect|verify)");
}

int cmd_validate(const Flags& flags) {
  PipelineConfig config = config_from(flags);
  const int content = static_cast<int>(flags.get_int("content", 2));
  const int transit = static_cast<int>(flags.get_int("transit", 2));
  config.threads = static_cast<int>(flags.get_int("threads", 0));
  faults_from(flags, config.faults);
  const TraceOutput trace_out(flags);
  reject_positional(flags);
  reject_unknown(flags);

  Pipeline pipeline(config);
  auto traces = pipeline.initial_campaign(
      pipeline.default_targets(content, transit), 0.6);
  const CfsReport report = pipeline.run_cfs(std::move(traces));

  const auto oracle = pipeline.validation().oracle_interface_accuracy(report);
  Table table({"Oracle metric", "Value"});
  table.add_row({"Scored interfaces", Table::cell(std::uint64_t{oracle.total})});
  table.add_row({"Facility accuracy", Table::percent(oracle.accuracy())});
  table.add_row({"City accuracy", Table::percent(oracle.city_accuracy())});
  const auto alias = pipeline.validation().oracle_alias_accuracy(report);
  table.add_row({"Alias pair precision", Table::percent(alias.precision(), 2)});
  table.add_row({"Alias pair recall", Table::percent(alias.recall(), 2)});
  table.add_row({"Alias true / false pairs",
                 std::to_string(alias.true_pairs) + " / " +
                     std::to_string(alias.false_pairs)});
  table.add_row({"Alias multi / wrong sets",
                 std::to_string(alias.multi_sets) + " / " +
                     std::to_string(alias.wrong_sets)});
  table.add_row({"Random-IPID unresolved / in sets",
                 std::to_string(alias.random_unresolved) + " / " +
                     std::to_string(alias.random_in_sets)});
  table.print(std::cout);

  const auto breakdown = pipeline.validation().validate(report);
  Table sources({"Source", "Link type", "Accuracy", "N"});
  for (const auto& [key, acc] : breakdown) {
    if (acc.total == 0) continue;
    sources.add_row({std::string(validation_source_name(key.first)),
                     std::string(validation_link_type_name(key.second)),
                     Table::percent(acc.accuracy()),
                     Table::cell(std::uint64_t{acc.total})});
  }
  sources.print(std::cout);

  std::cout << "\n";
  Trace::write_summary(std::cout, report.metrics.registry);
  trace_out.flush();
  return 0;
}

int cmd_diff(const Flags& flags) {
  const auto& positional = flags.positional();
  if (positional.size() != 2)
    throw std::invalid_argument("diff takes exactly two positional "
                                "arguments: cfs diff A.json B.json");
  JsonDiffOptions options;
  options.max_entries =
      static_cast<std::size_t>(flags.get_int("max", 32));
  const std::string ignore_csv = flags.get("ignore", "");
  std::istringstream prefixes(ignore_csv);
  for (std::string prefix; std::getline(prefixes, prefix, ',');)
    if (!prefix.empty()) options.ignore_prefixes.push_back(prefix);
  reject_unknown(flags);

  JsonValue docs[2];
  for (int side = 0; side < 2; ++side) {
    std::ifstream file(positional[side]);
    if (!file)
      throw std::runtime_error("cannot read " + positional[side]);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    docs[side] = parse_json(buffer.str());
  }

  const JsonDiff diff = diff_json(docs[0], docs[1], options);
  print_json_diff(std::cout, diff);
  return diff.empty() ? 0 : 1;
}

// Schedule knobs shared by `cfs stream` (both modes) and the docs. The
// schedule seed rides on the pipeline seed, so one --seed reproduces both
// the world and the event stream.
StreamScheduleConfig stream_config_from(const Flags& flags) {
  StreamScheduleConfig config;
  config.pipeline = config_from(flags);
  const std::int64_t rounds = flags.get_int("rounds", 6);
  if (rounds < 1) throw std::invalid_argument("--rounds must be >= 1");
  config.rounds = static_cast<std::size_t>(rounds);
  config.content_targets = static_cast<int>(flags.get_int("content", 2));
  config.transit_targets = static_cast<int>(flags.get_int("transit", 2));
  config.vp_fraction = flags.get_double("vp-fraction", 0.5);
  const std::int64_t outage = flags.get_int("outage-round", -1);
  if (outage >= 0) config.outage_round = static_cast<std::size_t>(outage);
  const std::int64_t pdb = flags.get_int("pdb-delta-round", -1);
  if (pdb >= 0) config.pdb_delta_round = static_cast<std::size_t>(pdb);
  config.churn_fraction = flags.get_double("churn", 0.0);
  config.seed = config.pipeline.seed;
  return config;
}

StreamSchedule load_schedule(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return stream_schedule_from_json(parse_json(buffer.str()));
}

// Detection scorecard against the schedule's ground truth — the
// BENCH_stream.json document (docs/STREAMING.md). Latency counts from the
// outage's stream timestamp to the alarm's snapshot position; epochs
// count from the first epoch that contained a post-outage event.
JsonValue detection_bench_json(const StreamSchedule& schedule,
                               const std::vector<std::vector<StreamEvent>>& epochs,
                               const DisruptionDetector& detector) {
  const StreamGroundTruth& truth = schedule.ground_truth;
  JsonValue::Object bench;
  bench.emplace("seed", schedule.seed);
  bench.emplace("rounds", static_cast<std::uint64_t>(schedule.rounds));
  bench.emplace("events", static_cast<std::uint64_t>(schedule.events.size()));
  bench.emplace("epochs", static_cast<std::uint64_t>(epochs.size()));

  JsonValue::Object truth_json;
  truth_json.emplace("has_outage", truth.has_outage);
  if (truth.has_outage) {
    truth_json.emplace("facility",
                       static_cast<std::uint64_t>(truth.outage_facility.value));
    truth_json.emplace("ts_ns", truth.outage_ts_ns);
    truth_json.emplace("round",
                       static_cast<std::uint64_t>(truth.outage_round));
  }
  bench.emplace("ground_truth", JsonValue(std::move(truth_json)));

  std::uint64_t outage_epoch = 0;  // 1-based; 0 = no outage in any epoch
  if (truth.has_outage)
    for (std::size_t e = 0; e < epochs.size() && outage_epoch == 0; ++e)
      for (const StreamEvent& event : epochs[e])
        if (event.ts_ns >= truth.outage_ts_ns) {
          outage_epoch = e + 1;
          break;
        }

  const DisruptionAlarm* localized = nullptr;
  std::uint64_t false_alarms = 0;
  JsonValue::Array alarm_docs;
  for (const DisruptionAlarm& alarm : detector.alarms()) {
    const bool correct =
        truth.has_outage && alarm.facility == truth.outage_facility;
    if (correct && localized == nullptr)
      localized = &alarm;
    else if (!correct)
      ++false_alarms;
    JsonValue::Object doc;
    doc.emplace("epoch", alarm.epoch);
    doc.emplace("ts_ns", alarm.ts_ns);
    doc.emplace("facility", static_cast<std::uint64_t>(alarm.facility.value));
    doc.emplace("baseline", alarm.baseline);
    doc.emplace("activity", alarm.activity);
    doc.emplace("correct", correct);
    alarm_docs.emplace_back(std::move(doc));
  }

  JsonValue::Object detection;
  detection.emplace("detected", !detector.alarms().empty());
  detection.emplace("localized", localized != nullptr);
  detection.emplace("false_alarms", false_alarms);
  if (localized != nullptr && outage_epoch > 0) {
    detection.emplace("detection_epoch", localized->epoch);
    detection.emplace("outage_epoch", outage_epoch);
    detection.emplace("latency_epochs", localized->epoch - outage_epoch);
    detection.emplace("latency_ns", localized->ts_ns - truth.outage_ts_ns);
  }
  detection.emplace("alarms", std::move(alarm_docs));
  bench.emplace("detection", JsonValue(std::move(detection)));
  return JsonValue(std::move(bench));
}

int cmd_stream(const Flags& flags) {
  if (flags.get_bool("generate", false)) {
    const std::string out = flags.get("events-out", "");
    if (out.empty())
      throw std::invalid_argument(
          "stream --generate requires --events-out FILE");
    const StreamScheduleConfig config = stream_config_from(flags);
    reject_positional(flags);
    reject_unknown(flags);

    const StreamSchedule schedule = generate_stream_schedule(config);
    std::ofstream file(out);
    if (!file) throw std::runtime_error("cannot write " + out);
    file << stream_schedule_to_json(schedule).dump() << "\n";
    if (!file.flush()) throw std::runtime_error("cannot write " + out);
    std::cout << "schedule written to " << out << ": "
              << schedule.events.size() << " events over " << schedule.rounds
              << " rounds";
    if (schedule.ground_truth.has_outage)
      std::cout << " (outage: facility "
                << schedule.ground_truth.outage_facility.value << " from round "
                << schedule.ground_truth.outage_round << ")";
    std::cout << "\n";
    return 0;
  }

  const std::string events_path = flags.get("events", "");
  const std::size_t epoch_events =
      static_cast<std::size_t>(flags.get_int("epoch-events", 0));
  const int threads = static_cast<int>(flags.get_int("threads", 1));
  const bool show_diff = flags.get_bool("diff", false);
  const bool show_alarms = flags.get_bool("detect", false);
  const std::size_t diff_max =
      static_cast<std::size_t>(flags.get_int("max", 8));
  const std::string report_path = flags.get("report", "");
  const std::string bench_out = flags.get("bench-out", "");
  const StreamScheduleConfig config = stream_config_from(flags);
  reject_positional(flags);
  reject_unknown(flags);

  const StreamSchedule schedule = events_path.empty()
                                      ? generate_stream_schedule(config)
                                      : load_schedule(events_path);
  Pipeline pipeline(config.pipeline);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  StreamEngine engine(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db(), StreamEngineConfig{},
                      pool.get());
  DisruptionDetector detector;

  const auto epochs = slice_epochs(schedule, epoch_events);
  JsonValue prev_json;
  StreamSnapshot last;
  for (const auto& slice : epochs) {
    const StreamSnapshot snap = engine.fold_epoch(slice);
    std::cout << "epoch " << snap.epoch << ": +" << slice.size()
              << " events (" << snap.trace_events << " traces in), "
              << snap.report.interfaces.size() << " interfaces, "
              << snap.report.links.size() << " links, "
              << Table::percent(snap.report.resolved_fraction())
              << " resolved, " << snap.vps_down << " VPs down\n";

    if (show_diff) {
      JsonValue cur = report_to_json(snap.report);
      cur.as_object().erase("metrics");
      if (snap.epoch > 1) {
        JsonDiffOptions options;
        options.max_entries = diff_max;
        print_json_diff(std::cout, diff_json(prev_json, cur, options));
      }
      prev_json = std::move(cur);
    }
    for (const DisruptionAlarm& alarm : detector.observe_epoch(slice, snap))
      if (show_alarms || !bench_out.empty())
        std::cout << "  ALARM epoch " << alarm.epoch << ": facility "
                  << alarm.facility.value << " activity " << alarm.activity
                  << " vs baseline " << Table::cell(alarm.baseline) << "\n";
    last = snap;
  }

  if (show_alarms && detector.alarms().empty())
    std::cout << "no disruption alarms\n";
  if (!bench_out.empty()) {
    std::ofstream file(bench_out);
    if (!file) throw std::runtime_error("cannot write " + bench_out);
    file << detection_bench_json(schedule, epochs, detector).pretty() << "\n";
    if (!file.flush()) throw std::runtime_error("cannot write " + bench_out);
    std::cout << "detection bench written to " << bench_out << "\n";
  }
  if (!report_path.empty()) {
    write_report_file(report_path, last.report);
    std::cout << "final-epoch report written to " << report_path << "\n";
  }
  return 0;
}

int cmd_serve(const Flags& flags) {
  const std::string socket = flags.get("socket", "");
  if (socket.empty())
    throw std::invalid_argument("serve requires --socket PATH");

  ServeOptions options;
  options.socket_path = socket;
  options.threads = static_cast<int>(flags.get_int("threads", 0));
  options.max_frame_bytes = static_cast<std::size_t>(flags.get_int(
      "max-frame-bytes", static_cast<std::int64_t>(kDefaultMaxFrameBytes)));
  if (options.max_frame_bytes < kFrameHeaderBytes)
    throw std::invalid_argument("--max-frame-bytes is too small");
  // Overload-control knobs (docs/SERVE.md "Overload and degradation
  // policy"); 0 disables each limit independently.
  options.max_connections =
      static_cast<std::size_t>(flags.get_int("max-connections", 0));
  options.idle_timeout_ms =
      static_cast<int>(flags.get_int("idle-timeout-ms", 0));
  options.write_stall_timeout_ms =
      static_cast<int>(flags.get_int("write-stall-timeout-ms", 0));
  options.request_deadline_ms =
      static_cast<int>(flags.get_int("request-deadline-ms", 0));
  if (options.idle_timeout_ms < 0 || options.write_stall_timeout_ms < 0 ||
      options.request_deadline_ms < 0)
    throw std::invalid_argument("timeouts must be non-negative");

  const std::string load_report = flags.get("load-report", "");
  const std::string stream_path = flags.get("stream", "");
  std::shared_ptr<const ServeState> state;
  // Stream mode: the daemon starts on the first epoch's world and a
  // background thread folds the remaining epochs, publishing one state
  // generation per epoch through the same swap `reload` uses.
  std::unique_ptr<Pipeline> stream_pipeline;
  std::unique_ptr<StreamEngine> stream_engine;
  std::vector<std::vector<StreamEvent>> stream_epochs;
  int epoch_interval_ms = 0;
  if (!stream_path.empty()) {
    if (!load_report.empty())
      throw std::invalid_argument("--stream and --load-report conflict: "
                                  "a streamed daemon derives its own state");
    const std::size_t epoch_events =
        static_cast<std::size_t>(flags.get_int("epoch-events", 0));
    epoch_interval_ms =
        static_cast<int>(flags.get_int("epoch-interval-ms", 0));
    if (epoch_interval_ms < 0)
      throw std::invalid_argument("--epoch-interval-ms must be non-negative");
    PipelineConfig config = config_from(flags);
    reject_positional(flags);
    reject_unknown(flags);

    const StreamSchedule schedule = load_schedule(stream_path);
    stream_pipeline = std::make_unique<Pipeline>(config);
    stream_engine = std::make_unique<StreamEngine>(
        stream_pipeline->topology(), stream_pipeline->ip2asn(),
        stream_pipeline->facility_db());
    stream_epochs = slice_epochs(schedule, epoch_events);
    if (stream_epochs.empty())
      throw std::runtime_error("stream schedule has no events: " +
                               stream_path);
    const StreamSnapshot first = stream_engine->fold_epoch(stream_epochs[0]);
    state = ServeState::from_report(first.report, "stream:" + stream_path, 0,
                                    first.epoch, first.last_ts_ns);
  } else if (!load_report.empty()) {
    reject_positional(flags);
    reject_unknown(flags);
    state = ServeState::from_file(load_report, 0);
  } else {
    PipelineConfig config = config_from(flags);
    const int content = static_cast<int>(flags.get_int("content", 2));
    const int transit = static_cast<int>(flags.get_int("transit", 2));
    const double vp_fraction = flags.get_double("vp-fraction", 0.6);
    config.threads = options.threads;
    reject_positional(flags);
    reject_unknown(flags);

    Pipeline pipeline(config);
    auto traces = pipeline.initial_campaign(
        pipeline.default_targets(content, transit), vp_fraction);
    state = ServeState::from_report(pipeline.run_cfs(std::move(traces)),
                                    "pipeline", 0);
  }

  Server server(std::move(options), state);
  std::cout << "cfs serve: " << state->report.interfaces.size()
            << " interfaces from " << state->source << ", "
            << server.resolved_threads() << " workers, socket "
            << server.socket_path();
  if (stream_engine != nullptr)
    std::cout << ", " << stream_epochs.size() << " epochs to fold";
  std::cout << "\n" << std::flush;

  // The folder runs beside the poll loop and stops at the next epoch
  // boundary once the daemon drains; swap_state wakes any subscriber.
  std::mutex folder_mutex;
  std::condition_variable folder_cv;
  bool folder_stop = false;
  std::thread folder;
  if (stream_engine != nullptr) {
    folder = std::thread([&] {
      for (std::size_t e = 1; e < stream_epochs.size(); ++e) {
        {
          std::unique_lock<std::mutex> lock(folder_mutex);
          if (folder_cv.wait_for(
                  lock, std::chrono::milliseconds(epoch_interval_ms),
                  [&] { return folder_stop; }))
            return;
        }
        const StreamSnapshot snap =
            stream_engine->fold_epoch(stream_epochs[e]);
        server.swap_state(ServeState::from_report(
            snap.report, "stream:" + stream_path,
            server.state()->generation + 1, snap.epoch, snap.last_ts_ns));
      }
    });
  }

  const int status = server.run();
  if (folder.joinable()) {
    {
      std::lock_guard<std::mutex> lock(folder_mutex);
      folder_stop = true;
    }
    folder_cv.notify_all();
    folder.join();
  }
  std::cout << "cfs serve: drained\n";
  return status;
}

int cmd_query(const Flags& flags) {
  const std::string socket = flags.get("socket", "");
  if (socket.empty())
    throw std::invalid_argument("query requires --socket PATH");
  const bool pretty = flags.get_bool("pretty", false);
  const std::string raw = flags.get("raw", "");
  const int timeout_ms = static_cast<int>(flags.get_int("timeout-ms", 0));
  const int retries = static_cast<int>(flags.get_int("retries", 2));
  const int backoff_ms =
      static_cast<int>(flags.get_int("retry-backoff-ms", 50));
  if (timeout_ms < 0 || retries < 0 || backoff_ms < 0)
    throw std::invalid_argument(
        "--timeout-ms/--retries/--retry-backoff-ms must be non-negative");

  JsonValue request;
  if (!raw.empty()) {
    if (!flags.positional().empty())
      throw std::invalid_argument(
          "--raw supplies the whole request; drop the positional op");
    reject_unknown(flags);
    try {
      request = parse_json(raw);
    } catch (const std::exception& error) {
      throw std::invalid_argument(std::string("--raw is not valid JSON: ") +
                                  error.what());
    }
  } else {
    const auto& positional = flags.positional();
    if (positional.size() != 1)
      throw std::invalid_argument(
          "query takes exactly one op: "
          "lookup|peers_at|diff|metrics|reload|ping|epoch|subscribe|shutdown "
          "(or --raw '<json>')");
    JsonValue::Object doc;
    doc.emplace("op", positional.front());
    if (flags.has("id")) doc.emplace("id", flags.get_int("id", 0));
    if (flags.has("ip")) doc.emplace("ip", flags.get("ip", ""));
    if (flags.has("facility"))
      doc.emplace("facility", flags.get_int("facility", 0));
    if (flags.has("snapshot"))
      doc.emplace("snapshot", flags.get("snapshot", ""));
    if (flags.has("report")) doc.emplace("report", flags.get("report", ""));
    if (flags.has("max")) doc.emplace("max", flags.get_int("max", 32));
    if (flags.has("ignore")) doc.emplace("ignore", flags.get("ignore", ""));
    // subscribe long-poll parameters; --wait-ms is the server-side park
    // bound, distinct from the client transport --timeout-ms.
    if (flags.has("min-generation"))
      doc.emplace("min_generation", flags.get_int("min-generation", 0));
    if (flags.has("wait-ms"))
      doc.emplace("timeout_ms", flags.get_int("wait-ms", 1000));
    reject_unknown(flags);
    request = JsonValue(std::move(doc));
  }

  ServeClient client;
  client.set_timeout_ms(timeout_ms);
  // Retry policy: only the connect phase retries (exponential backoff,
  // bounded by --retries). Once the request has been written, a timeout
  // or transport failure is final — re-sending could double-apply a
  // non-idempotent op (reload, shutdown), so that risk stays with the
  // caller, not the client.
  for (int attempt = 0;; ++attempt) {
    try {
      client.connect(socket);
      break;
    } catch (const std::exception&) {
      if (attempt >= retries) throw;
      const auto nap = std::chrono::milliseconds(
          static_cast<std::int64_t>(backoff_ms) << attempt);
      std::this_thread::sleep_for(nap);
    }
  }
  const JsonValue response = client.request(request);
  std::cout << (pretty ? response.pretty() : response.dump()) << "\n";
  const JsonValue* ok = response.find("ok");
  return (ok != nullptr && ok->is_bool() && ok->as_bool()) ? 0 : 1;
}

void print_usage(std::ostream& os) {
  os << "usage: cfs "
        "<generate|census|infer|corpus|validate|diff|stream|serve|query> "
        "[--scale tiny|small|paper] [--seed N] ...\n"
        "see the tools/cfs_cli.cpp header for per-command flags; "
        "docs/SERVE.md covers serve/query, docs/STREAMING.md covers stream, "
        "docs/SCALE.md covers infer --spill and corpus\n";
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  // Asking for help is success: usage goes to stdout and exits 0, so
  // `cfs --help | less` works and scripts can probe the binary cheaply.
  if (argc < 2) {
    print_usage(std::cout);
    return 0;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage(std::cout);
    return 0;
  }
  try {
    // Inside the try: the constructor throws on repeated flags, and that
    // is a user error (exit 3), not a crash.
    const Flags flags(argc - 1, argv + 1);
    if (command == "generate") return cmd_generate(flags);
    if (command == "census") return cmd_census(flags);
    if (command == "infer") return cmd_infer(flags);
    if (command == "corpus") return cmd_corpus(flags);
    if (command == "validate") return cmd_validate(flags);
    if (command == "diff") return cmd_diff(flags);
    if (command == "stream") return cmd_stream(flags);
    if (command == "serve") return cmd_serve(flags);
    if (command == "query") return cmd_query(flags);
    // An unknown command is a usage error, not a request for help: the
    // diagnostic and usage text go to stderr and the exit is 3, the same
    // class as a bad flag.
    std::cerr << "error: unknown command '" << command << "'\n";
    print_usage(std::cerr);
    return 3;
  } catch (const std::invalid_argument& error) {
    // Bad flag value, stray positional or unknown flag: user error,
    // distinct from crashes so scripts can tell a typo from a broken run.
    std::cerr << "error: " << error.what() << "\n";
    return 3;
  } catch (const corpus::CorpusError& error) {
    // A rejected corpus (missing, truncated, bit-flipped, version-skewed)
    // is its own exit so scripts and tests can tell "re-pack the corpus"
    // from a generic runtime failure. The message names file + offset.
    std::cerr << "error: " << error.what() << "\n";
    return 6;
  } catch (const ClientTimeoutError& error) {
    // A stalled daemon (query --timeout-ms expired) is its own exit so
    // scripts can tell "wedged, maybe retry later" from a broken
    // transport or a crash.
    std::cerr << "error: " << error.what() << "\n";
    return 5;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 4;
  }
}
