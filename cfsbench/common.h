// Shared plumbing of the benchmark workloads: options and outcome, the
// pinned paper-scale world, registry and RSS readers, and the per-layer
// replays that time single layers from outside, through their public
// functions. Nothing here adds spans or knobs inside src/.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "traceroute/engine.h"
#include "util/trace.h"

namespace cfsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // scratch files and trace artifacts
};

// What a workload measured: operations attempted and failed, and metric
// values by catalog name (end-to-end when untraced, per-layer when
// traced).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

// Threads and connections each workload puts on the host at once; main
// refuses a workload whose sum exceeds the host's CPUs.
inline constexpr int kInferThreads = 2;
inline constexpr int kServeWorkers = 2;
inline constexpr int kServeClients = 2;

Outcome run_infer(const Options& options);
Outcome run_stream(const Options& options);
Outcome run_serve(const Options& options);

// The paper-scale world at the `cfs infer --scale paper` defaults, with
// its seeds pinned: every run maps the same world, so resolved_frac and
// facility_accuracy are exact guards rather than seed averages.
[[nodiscard]] cfs::PipelineConfig paper_world(int threads);
inline constexpr int kContentTargets = 2;
inline constexpr int kTransitTargets = 2;
inline constexpr double kVpFraction = 0.6;

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double current_rss_mb();

// Readers over a Trace::metrics_since() delta; 0 when absent.
[[nodiscard]] double timer_ms(const cfs::MetricsSnapshot& delta,
                              const std::string& name);
[[nodiscard]] double counter(const cfs::MetricsSnapshot& delta,
                             const std::string& name);

// One pass of the paper's batch workflow on a fresh Pipeline: set-up
// (construction), then the initial campaign and CFS, each under a
// benchmark span. Registry deltas are kept so traced runs can read the
// stages the library already times.
struct MapCycle {
  std::unique_ptr<cfs::Pipeline> pipeline;
  std::vector<cfs::TraceResult> initial;  // only when asked to keep it
  cfs::CfsReport report;
  double setup_ms = 0.0;
  double campaign_ms = 0.0;
  double cfs_ms = 0.0;
  cfs::MetricsSnapshot setup_delta;
  cfs::MetricsSnapshot campaign_delta;
};
[[nodiscard]] MapCycle build_map(int threads, bool keep_initial);

// Sets resolved_frac (resolved / peering interfaces) and
// facility_accuracy (ValidationHarness::oracle_interface_accuracy).
void score_map(cfs::Pipeline& pipeline, const cfs::CfsReport& report,
               Outcome& out);

// report_to_json + dump, the `cfs infer --report` bytes; returns ms.
double time_export(const cfs::CfsReport& report, std::string& bytes);
// ServeState::from_report on a copy of the report; returns ms.
[[nodiscard]] double time_publish(const cfs::CfsReport& report);
// True when exported bytes survive report_from_json -> report_to_json.
[[nodiscard]] bool round_trips(const std::string& bytes);

// pipeline.construct_ms, topology.generate_ms (from the set-up delta) and
// the campaign.* layers (from the campaign delta).
void read_setup_layers(double construct_ms,
                       const cfs::MetricsSnapshot& setup_delta,
                       const cfs::MetricsSnapshot& campaign_delta,
                       Outcome& out);
// The cfs.* columns of CfsReport::metrics.
void read_cfs_layers(const cfs::CfsReport& report, Outcome& out);
// Replays from outside, each under a benchmark span: a fresh
// AliasResolver over the report's alias target set (sets + unresolved,
// the final refresh's input), BorderMapper over the corpus, and
// HopClassifier::classify_all over the corpus under the raw ASN map.
void replay_alias_layers(const cfs::Topology& topo,
                         const cfs::IpToAsnService& ip2asn,
                         std::uint64_t alias_seed,
                         const std::vector<cfs::TraceResult>& traces,
                         const cfs::CfsReport& report, Outcome& out);

}  // namespace cfsbench
