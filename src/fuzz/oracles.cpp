#include "fuzz/oracles.h"

#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <filesystem>

#include "analysis/diff.h"
#include "data/corpus/corpus.h"
#include "io/export.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/handlers.h"
#include "serve/server.h"
#include "stream/engine.h"
#include "stream/schedule.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace cfs {
namespace {

// One arm of a differential pair: full pipeline at the given thread count
// and engine, traces from the scenario's campaign shape.
CfsReport run_arm(const Scenario& s, int threads, bool incremental) {
  PipelineConfig config = s.pipeline_config();
  config.threads = threads;
  config.cfs.incremental = incremental;
  Pipeline pipeline(config);
  auto traces = pipeline.initial_campaign(
      pipeline.default_targets(s.content_targets, s.transit_targets),
      s.vp_fraction);
  return pipeline.run_cfs(std::move(traces));
}

std::optional<OracleFailure> fail(const std::string& oracle,
                                  std::string message) {
  return OracleFailure{oracle, std::move(message)};
}

// Summarises a non-empty diff as "first divergent path + totals".
std::string diff_message(const char* what, const JsonDiff& diff) {
  std::ostringstream os;
  os << what << " diverge at " << diff.first_path() << " ("
     << diff.entries.front().left << " -> " << diff.entries.front().right
     << "; " << diff.total << " difference(s) total)";
  return os.str();
}

// Engine-equivalence form: metrics cut (wall clock), and per-interface
// `conflicts` cut — the full engine re-counts the same conflicting
// observation every sweep while the incremental engine visits it once, so
// the tally is engine-specific by design (tests/core/incremental_test.cpp).
JsonValue engine_equivalence_json(const CfsReport& report) {
  JsonValue json = equivalence_json(report);
  for (JsonValue& iface : json.as_object().at("interfaces").as_array())
    iface.as_object().erase("conflicts");
  return json;
}

// --- oracle: serial vs parallel ---
std::optional<OracleFailure> check_parallel(const Scenario& s) {
  const CfsReport reference = run_arm(s, 1, true);
  const CfsReport parallel = run_arm(s, s.threads, true);

  const JsonDiff report_diff =
      diff_json(equivalence_json(reference), equivalence_json(parallel));
  if (!report_diff.empty())
    return fail("parallel", diff_message("reports (threads 1 vs k)",
                                         report_diff));

  const JsonDiff counter_diff = diff_json(counters_json(reference.metrics),
                                          counters_json(parallel.metrics));
  if (!counter_diff.empty())
    return fail("parallel",
                diff_message("metrics counters (threads 1 vs k)",
                             counter_diff));
  return std::nullopt;
}

// --- oracle: incremental vs from-scratch ---
std::optional<OracleFailure> check_incremental(const Scenario& s) {
  const CfsReport incremental = run_arm(s, 1, true);
  const CfsReport scratch = run_arm(s, 1, false);
  const JsonDiff diff = diff_json(engine_equivalence_json(incremental),
                                  engine_equivalence_json(scratch));
  if (!diff.empty())
    return fail("incremental",
                diff_message("reports (incremental vs scratch)", diff));
  return std::nullopt;
}

// --- oracle: export round-trip fixpoint ---
std::optional<OracleFailure> check_roundtrip(const Scenario& s) {
  // Topology: canonical from the first pass.
  const Topology topo = generate_topology(s.pipeline_config().generator);
  const std::string t1 = topology_to_json(topo).pretty();
  const std::string t2 =
      topology_to_json(topology_from_json(parse_json(t1))).pretty();
  if (t1 != t2) {
    const JsonDiff diff = diff_json(parse_json(t1), parse_json(t2));
    return fail("roundtrip", diff_message("topology to_json . from_json",
                                          diff));
  }

  // Report, produced by the parallel arm so round-trip also covers
  // pool-built reports: to_json . from_json must be the identity on the
  // serialised form from the very first pass (export is canonical).
  const CfsReport report = run_arm(s, s.threads, true);
  const std::string r1 = report_to_json(report).pretty();
  const std::string r2 =
      report_to_json(report_from_json(parse_json(r1))).pretty();
  if (r1 != r2) {
    const JsonDiff diff = diff_json(parse_json(r1), parse_json(r2));
    return fail("roundtrip",
                diff_message("report to_json . from_json", diff));
  }
  // Second pass: the fixpoint must hold for every further iteration.
  const std::string r3 =
      report_to_json(report_from_json(parse_json(r2))).pretty();
  if (r2 != r3) {
    const JsonDiff diff = diff_json(parse_json(r2), parse_json(r3));
    return fail("roundtrip",
                diff_message("report second-pass fixpoint", diff));
  }
  return std::nullopt;
}

// --- oracle: fault-plan replay determinism ---
std::optional<OracleFailure> check_replay(const Scenario& s) {
  const CfsReport first = run_arm(s, s.threads, true);
  const CfsReport second = run_arm(s, s.threads, true);
  const JsonDiff report_diff =
      diff_json(equivalence_json(first), equivalence_json(second));
  if (!report_diff.empty())
    return fail("replay", diff_message("repeated runs", report_diff));
  const JsonDiff counter_diff = diff_json(counters_json(first.metrics),
                                          counters_json(second.metrics));
  if (!counter_diff.empty())
    return fail("replay",
                diff_message("repeated-run metrics counters", counter_diff));
  return std::nullopt;
}

// --- oracle: memory-layout refactor golden ---
//
// The dense-handle/SoA core must be observationally invisible: the
// canonical export (equivalence form) has to stay byte-identical to what
// the pre-refactor engine produced. Three layers of teeth, cheapest
// first: export-level layout invariants (canonical interface order,
// sorted duplicate-free candidate sets — exactly the properties an
// arena-span or interner bug would corrupt first), serial-vs-threaded
// byte equality of the export itself, and — when the scenario carries a
// stamped `expected_export_fnv1a` — a hash comparison against the golden
// captured before the refactor (`cfs_fuzz --stamp-golden`).
std::optional<OracleFailure> check_layout_equivalence(const Scenario& s) {
  const char* name = "layout_equivalence";
  const CfsReport serial = run_arm(s, 1, true);
  const JsonValue serial_json = equivalence_json(serial);
  const std::string serial_bytes = serial_json.pretty();

  // Export-level layout invariants.
  std::uint64_t prev_addr = 0;
  bool first = true;
  for (const JsonValue& iface :
       serial_json.as_object().at("interfaces").as_array()) {
    const std::string& addr = iface.at("address").as_string();
    const auto parsed = Ipv4::parse(addr);
    if (!parsed)
      return fail(name, "export interface address '" + addr +
                            "' does not parse back to an Ipv4");
    if (!first && parsed->value() <= prev_addr)
      return fail(name, "export interfaces not in strictly increasing "
                        "address order at " + addr);
    first = false;
    prev_addr = parsed->value();

    const auto& cands = iface.at("candidates").as_array();
    for (std::size_t i = 1; i < cands.size(); ++i)
      if (cands[i].as_int() <= cands[i - 1].as_int())
        return fail(name, "interface " + addr +
                              ": exported candidate set not sorted/unique");
  }

  // The threaded arm must export the same bytes (the parallel oracle
  // compares JSON trees; this one insists on the serialised form, which
  // is what the golden hash is taken over).
  const CfsReport threaded = run_arm(s, s.threads, true);
  if (equivalence_json(threaded).pretty() != serial_bytes) {
    const JsonDiff diff =
        diff_json(serial_json, equivalence_json(threaded));
    return fail(name, diff_message(
                          "canonical export bytes (threads 1 vs k)", diff));
  }

  if (!s.expected_export_fnv1a.empty()) {
    const std::string actual = hex64(fnv1a64(serial_bytes));
    if (actual != s.expected_export_fnv1a)
      return fail(name,
                  "canonical export hash " + actual +
                      " != stamped golden " + s.expected_export_fnv1a +
                      " — the report drifted from the pre-refactor bytes "
                      "(re-stamp only if the change is intentional: "
                      "cfs_fuzz --stamp-golden)");
  }
  return std::nullopt;
}

// --- oracle: structural / paper-grounded invariants ---
std::optional<OracleFailure> check_invariants(const Scenario& s) {
  const CfsReport report = run_arm(s, s.threads, true);
  const char* name = "invariants";

  for (const auto& [addr, inf] : report.interfaces) {
    if (inf.has_constraint && inf.candidates.empty())
      return fail(name, "interface " + addr.to_string() +
                            ": constrained to an empty candidate set");
    if (!std::is_sorted(inf.candidates.begin(), inf.candidates.end()))
      return fail(name, "interface " + addr.to_string() +
                            ": candidate set not sorted");
    if (std::adjacent_find(inf.candidates.begin(), inf.candidates.end()) !=
        inf.candidates.end())
      return fail(name, "interface " + addr.to_string() +
                            ": duplicate facility in candidate set");
    if (inf.resolved_iteration >= 0 && !inf.resolved())
      return fail(name, "interface " + addr.to_string() +
                            ": resolved_iteration set but |candidates| != 1");
  }

  // Every inferred facility must lie inside its interface's constraint
  // set (Section 4: CFS only ever narrows; the final link pass must not
  // invent a facility the constraints exclude).
  for (std::size_t i = 0; i < report.links.size(); ++i) {
    const LinkInference& link = report.links[i];
    const auto in_candidates = [&](Ipv4 addr, FacilityId fac) {
      const InterfaceInference* inf = report.find(addr);
      if (inf == nullptr || !inf->has_constraint) return true;  // no claim
      return std::binary_search(inf->candidates.begin(),
                                inf->candidates.end(), fac);
    };
    if (link.near_facility &&
        !in_candidates(link.obs.near_addr, *link.near_facility))
      return fail(name, "links/" + std::to_string(i) +
                            ": near facility outside the near interface's "
                            "candidate set");
    // A proximity-inferred far end is a heuristic guess (Section 4.4) and
    // may legitimately sit outside the far interface's own constraints.
    if (link.far_facility && !link.far_by_proximity &&
        !in_candidates(link.obs.far_addr, *link.far_facility))
      return fail(name, "links/" + std::to_string(i) +
                            ": far facility outside the far interface's "
                            "candidate set");
  }

  // Convergence history: constraints only narrow, so the cumulative
  // resolved count never decreases (Fig. 7 curves are monotone).
  for (std::size_t i = 1; i < report.resolved_per_iteration.size(); ++i)
    if (report.resolved_per_iteration[i] < report.resolved_per_iteration[i - 1])
      return fail(name, "resolved_per_iteration decreases at iteration " +
                            std::to_string(i + 1));
  if (!report.resolved_per_iteration.empty() &&
      report.resolved_per_iteration.back() != report.resolved_interfaces())
    return fail(name,
                "final resolved_per_iteration entry disagrees with the "
                "resolved-interface count");
  if (report.iterations_run != report.metrics.iterations.size())
    return fail(name, "iterations_run != metrics.iterations.size()");

  // Alias sets partition addresses: one router per interface.
  std::unordered_map<Ipv4, std::size_t> seen;
  for (std::size_t i = 0; i < report.aliases.sets.size(); ++i)
    for (const Ipv4 addr : report.aliases.sets[i]) {
      const auto [it, inserted] = seen.emplace(addr, i);
      if (!inserted)
        return fail(name, "address " + addr.to_string() +
                              " appears in alias sets " +
                              std::to_string(it->second) + " and " +
                              std::to_string(i));
    }

  // Measurement-plane accounting (net/faults.h invariant).
  const FaultMetrics& fm = report.metrics.faults;
  if (fm.traces_attempted != fm.traces_kept + fm.traces_unreachable +
                                 fm.probes_abandoned +
                                 fm.probes_skipped_open_circuit)
    return fail(name, "fault-plane attrition accounting does not add up");
  return std::nullopt;
}

// --- oracle: pinned interfaces stay pinned when traces are added ---
std::optional<OracleFailure> check_pinning(const Scenario& s) {
  // Both arms run the monotone core of CFS: no fault plane (withheld-data
  // draws would differ between arms after the extra campaign consumed
  // fault RNG), no alias propagation and no follow-up probing (alias
  // partitions and follow-up choices are evidence-dependent, so arm B's
  // constraint set would not be a superset of arm A's and the narrowing
  // argument below would not hold). What remains is the paper's Step-2
  // per-observation constraining, which is where the monotonicity claim
  // actually lives.
  PipelineConfig config = s.pipeline_config();
  config.faults = FaultPlan{};
  config.cfs.use_alias_constraints = false;
  config.cfs.followup_interfaces = 0;

  // Arm A: the scenario's own campaign.
  Pipeline base(config);
  auto base_traces = base.initial_campaign(
      base.default_targets(s.content_targets, s.transit_targets),
      s.vp_fraction);
  const CfsReport before = base.run_cfs(std::move(base_traces));

  // Arm B: the identical campaign (same pipeline seed, same first draws)
  // plus a second campaign toward a wider target set appended on top.
  Pipeline wider(config);
  auto traces = wider.initial_campaign(
      wider.default_targets(s.content_targets, s.transit_targets),
      s.vp_fraction);
  auto extra = wider.initial_campaign(
      wider.default_targets(s.content_targets + 1, s.transit_targets + 1),
      s.vp_fraction);
  traces.insert(traces.end(), std::make_move_iterator(extra.begin()),
                std::make_move_iterator(extra.end()));
  const CfsReport after = wider.run_cfs(std::move(traces));

  // IfaceTable::constrain only ever intersects, and a constraint
  // that would empty the set is recorded as a conflict and ignored. For an
  // interface with zero conflicts in both runs the final candidate set is
  // a plain intersection of its constraints; arm B applies a superset of
  // arm A's, so B's set is contained in A's: an interface pinned to F in A
  // must stay pinned to F in B. Conflicted interfaces are excluded —
  // conflict-ignoring is order-sensitive by design (stale data must not
  // erase good constraints), as is an interface whose ASN attribution or
  // remote verdict moved with the extra evidence (different initial set).
  for (const auto& [addr, inf] : before.interfaces) {
    if (!inf.resolved() || inf.conflicts != 0) continue;
    const InterfaceInference* now = after.find(addr);
    if (now == nullptr || now->conflicts != 0 || now->asn != inf.asn ||
        now->remote_suspect != inf.remote_suspect)
      continue;
    if (!now->resolved())
      return fail("pinning",
                  "interface " + addr.to_string() +
                      " was pinned without conflicts but un-pinned after "
                      "adding traces (|candidates| now " +
                      std::to_string(now->candidates.size()) + ")");
    if (now->facility() != inf.facility())
      return fail("pinning", "interface " + addr.to_string() +
                                 " moved facility after adding traces "
                                 "despite zero conflicts");
  }
  return std::nullopt;
}

// --- oracle: serve transport vs batch export ---
//
// The resident daemon must be transparent: whatever abuse the transport
// schedule inflicts — torn frames, dribbled bytes, disconnects, stalls —
// every request that is actually answered (not shed) returns the exact
// bytes the batch export would have produced for the same world. The
// daemon is live, the clients are real sockets, the schedule is a pure
// hash of the scenario seed, so a failure replays exactly.
std::optional<OracleFailure> check_serve_transport(const Scenario& s) {
  const CfsReport report = run_arm(s, s.threads, true);
  const auto state =
      ServeState::from_report(report, "pipeline", 0);

  std::vector<ChaosExpectation> lookups;
  for (const JsonValue& entry :
       state->report_json.at("interfaces").as_array())
    lookups.push_back({entry.at("address").as_string(), entry.dump()});
  if (lookups.empty()) return std::nullopt;  // nothing observable to query
  lookups.push_back({"203.0.113.250", "absent"});

  ServeOptions options;
  options.socket_path = "/tmp/cfs_fuzz_serve_" + std::to_string(::getpid()) +
                        "_" + std::to_string(s.seed) + ".sock";
  options.threads = s.threads;
  options.install_signal_handlers = false;
  Server server(options, state);
  std::thread daemon([&server] { (void)server.run(); });
  const auto stop_daemon = [&] {
    server.request_shutdown();
    daemon.join();
  };
  for (int attempt = 0;; ++attempt) {
    try {
      ServeClient probe;
      probe.connect(server.socket_path());
      break;
    } catch (const std::exception&) {
      if (attempt > 400) {
        stop_daemon();
        return fail("serve_transport", "daemon never came up on " +
                                           options.socket_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  ChaosConfig config;
  config.socket_path = server.socket_path();
  config.seed = s.seed ^ s.fault_seed ^ 0x5e47e5ULL;
  config.clients = std::min(s.threads + 2, 6);
  config.requests_per_client = 40;
  config.plan.byte_write_fraction = 0.2;
  config.plan.torn_frame_fraction = 0.15;
  config.plan.disconnect_fraction = 0.1;
  config.plan.stall_fraction = 0.05;
  config.plan.stall_ms = 2.0;
  config.plan.read_stall_fraction = 0.05;

  const ChaosStats stats = run_chaos_clients(config, lookups);
  stop_daemon();

  if (stats.desyncs > 0)
    return fail("serve_transport",
                std::to_string(stats.desyncs) +
                    " answered request(s) diverged from the batch export "
                    "under transport chaos (" +
                    std::to_string(stats.attempted) + " attempted, " +
                    std::to_string(stats.ok) + " validated)");
  if (stats.transport_errors > 0)
    return fail("serve_transport",
                std::to_string(stats.transport_errors) +
                    " request(s) wedged the transport (timeout/desync "
                    "reading a live daemon)");
  if (stats.ok == 0)
    return fail("serve_transport",
                "no request was ever validated against the export (" +
                    std::to_string(stats.attempted) + " attempted)");
  return std::nullopt;
}

// --- oracle: streaming prefix equivalence ---
// The stream engine's correctness contract (docs/STREAMING.md): after
// every epoch, the epoch-by-epoch fold must be byte-identical — canonical
// snapshot bytes — to a fresh engine folding the whole event prefix as one
// epoch, at 1 worker and at 4 workers.
std::optional<OracleFailure> check_stream_prefix(const Scenario& s) {
  if (s.stream_rounds <= 0) return std::nullopt;

  StreamScheduleConfig sc;
  sc.pipeline = s.pipeline_config();
  sc.rounds = static_cast<std::size_t>(s.stream_rounds);
  sc.content_targets = s.content_targets;
  sc.transit_targets = s.transit_targets;
  sc.vp_fraction = s.vp_fraction;
  sc.outage_round = s.stream_outage_round >= 0
                        ? static_cast<std::size_t>(s.stream_outage_round)
                        : static_cast<std::size_t>(-1);
  sc.pdb_delta_round =
      s.stream_pdb_delta_round >= 0
          ? static_cast<std::size_t>(s.stream_pdb_delta_round)
          : static_cast<std::size_t>(-1);
  sc.churn_fraction = s.stream_churn;
  sc.seed = s.seed ^ 0x57ea9f1dull;
  const StreamSchedule schedule = generate_stream_schedule(sc);
  if (schedule.events.empty()) return std::nullopt;

  Pipeline pipeline(sc.pipeline);
  const auto epochs = slice_epochs(
      schedule, static_cast<std::size_t>(std::max(0, s.stream_epoch_events)));

  StreamEngine serial(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db());
  ThreadPool pool(4);
  StreamEngine threaded(pipeline.topology(), pipeline.ip2asn(),
                        pipeline.facility_db(), StreamEngineConfig{}, &pool);

  std::vector<StreamEvent> prefix;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const std::string at1 = serial.fold_epoch(epochs[e]).canonical;
    const std::string at4 = threaded.fold_epoch(epochs[e]).canonical;
    if (at1 != at4) {
      const JsonDiff diff = diff_json(parse_json(at1), parse_json(at4));
      return fail("stream_prefix",
                  "epoch " + std::to_string(e) + ": " +
                      diff_message("snapshots (1 vs 4 workers)", diff));
    }

    prefix.insert(prefix.end(), epochs[e].begin(), epochs[e].end());
    StreamEngine batch(pipeline.topology(), pipeline.ip2asn(),
                       pipeline.facility_db());
    const std::string full = batch.fold_epoch(prefix).canonical;
    if (at1 != full) {
      const JsonDiff diff = diff_json(parse_json(at1), parse_json(full));
      return fail("stream_prefix",
                  "epoch " + std::to_string(e) + ": " +
                      diff_message("snapshots (streamed vs batch prefix)",
                                   diff));
    }
  }
  return std::nullopt;
}

// --- oracle: out-of-core spill equivalence ---
//
// The spill path (docs/SCALE.md) must be observationally invisible: a
// campaign streamed to an on-disk column corpus and folded through CFS via
// mmap has to produce the exact report of the in-memory engine at every
// thread count, and the corpus it leaves behind must pass deep
// verification. Threads are varied so the pooled speculation windows and
// the classify-time page releases are covered by the same contract.
std::optional<OracleFailure> check_corpus_spill(const Scenario& s) {
  const char* name = "corpus_spill";
  const CfsReport reference = run_arm(s, 1, true);
  const std::string ref_bytes = equivalence_json(reference).pretty();
  const JsonValue ref_counters = counters_json(reference.metrics);

  for (const int threads : {1, 4}) {
    const std::string dir = "/tmp/cfs_fuzz_spill_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(s.seed) + "_" +
                            std::to_string(threads);
    std::filesystem::remove_all(dir);
    const std::string arm = "threads " + std::to_string(threads);

    PipelineConfig config = s.pipeline_config();
    config.threads = threads;
    config.spill.enabled = true;
    config.spill.dir = dir;
    Pipeline pipeline(config);
    auto store = pipeline.initial_campaign_store(
        pipeline.default_targets(s.content_targets, s.transit_targets),
        s.vp_fraction);
    // The corpus left on disk must survive deep verification before the
    // report comparison even starts.
    try {
      (void)corpus::TraceCorpusReader::verify(dir);
    } catch (const corpus::CorpusError& error) {
      std::filesystem::remove_all(dir);
      return fail(name, arm + ": spilled corpus failed verification: " +
                            error.what());
    }
    const CfsReport spilled = pipeline.run_cfs(std::move(store));
    std::filesystem::remove_all(dir);

    const JsonValue spilled_json = equivalence_json(spilled);
    if (spilled_json.pretty() != ref_bytes) {
      const JsonDiff diff = diff_json(parse_json(ref_bytes), spilled_json);
      return fail(name, arm + ": " +
                            diff_message("reports (in-memory vs spill)", diff));
    }
    const JsonDiff counter_diff =
        diff_json(ref_counters, counters_json(spilled.metrics));
    if (!counter_diff.empty())
      return fail(name,
                  arm + ": " + diff_message(
                                   "metrics counters (in-memory vs spill)",
                                   counter_diff));
  }
  return std::nullopt;
}

}  // namespace

CfsReport run_reference_arm(const Scenario& scenario) {
  return run_arm(scenario, 1, true);
}

JsonValue equivalence_json(const CfsReport& report) {
  JsonValue json = report_to_json(report);
  json.as_object().erase("metrics");  // wall clock legitimately differs
  return json;
}

const std::vector<Oracle>& all_oracles() {
  static const std::vector<Oracle> oracles = {
      {"parallel",
       "reports byte-identical at --threads 1 vs the scenario's thread "
       "count",
       check_parallel},
      {"incremental",
       "incremental engine matches the from-scratch engine",
       check_incremental},
      {"roundtrip",
       "topology/report JSON export is a round-trip fixpoint",
       check_roundtrip},
      {"replay", "repeated faulted runs replay byte-identically",
       check_replay},
      {"layout_equivalence",
       "canonical export bytes match the stamped pre-refactor golden "
       "(layout invariants + serial-vs-threaded byte equality + fnv1a64 "
       "hash)",
       check_layout_equivalence},
      {"invariants",
       "paper-grounded report invariants (facility in candidate set, "
       "monotone convergence, alias partition, fault accounting)",
       check_invariants},
      {"pinning",
       "conflict-free pinned interfaces stay pinned when traces are added",
       check_pinning},
      {"corpus_spill",
       "campaign spilled to an on-disk corpus + out-of-core CFS matches "
       "the in-memory report byte-for-byte at threads {1,4}, and the "
       "corpus passes deep verification",
       check_corpus_spill},
      {"serve_transport",
       "a live daemon under seeded socket chaos answers every non-shed "
       "request byte-identically to the batch export",
       check_serve_transport},
      {"stream_prefix",
       "epoch-by-epoch stream folds match a batch re-fold of every event "
       "prefix byte-for-byte, at 1 and 4 workers",
       check_stream_prefix},
  };
  return oracles;
}

std::vector<Oracle> oracles_by_name(const std::string& csv) {
  if (csv.empty() || csv == "all") return all_oracles();
  std::vector<Oracle> out;
  for (const std::string& raw : split(csv, ',')) {
    const std::string name{trim(raw)};
    if (name.empty()) continue;
    bool found = false;
    for (const Oracle& oracle : all_oracles())
      if (oracle.name == name) {
        out.push_back(oracle);
        found = true;
        break;
      }
    if (!found) {
      std::string valid;
      for (const Oracle& oracle : all_oracles())
        valid += (valid.empty() ? "" : ", ") + oracle.name;
      throw std::invalid_argument("unknown oracle '" + name +
                                  "' (valid: " + valid + ")");
    }
  }
  if (out.empty()) throw std::invalid_argument("empty oracle selection");
  return out;
}

std::optional<OracleFailure> run_oracles(const Scenario& scenario,
                                         const std::vector<Oracle>& oracles) {
  for (const Oracle& oracle : oracles) {
    std::optional<OracleFailure> failure;
    try {
      failure = oracle.run(scenario);
    } catch (const std::exception& error) {
      failure = OracleFailure{oracle.name,
                              std::string("exception: ") + error.what()};
    }
    if (failure) return failure;
  }
  return std::nullopt;
}

}  // namespace cfs
