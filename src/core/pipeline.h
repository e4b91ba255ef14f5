// End-to-end experiment pipeline.
//
// Wires the full stack the way the paper's measurement study is wired:
// ground-truth topology -> looking-glass directory -> vantage points ->
// routing/forwarding/traceroute engines -> noisy public data sources ->
// CFS -> validation harness. Benchmarks, examples and integration tests
// all build on this instead of repeating the plumbing.
#pragma once

#include <memory>
#include <string>

#include "core/cfs.h"
#include "core/validation.h"
#include "data/geoip.h"
#include "data/normalize.h"
#include "topology/generator.h"

namespace cfs {

struct PipelineConfig {
  GeneratorConfig generator;
  PlatformConfig platforms;
  LookingGlassDirectory::Config looking_glasses;
  EngineConfig engine;
  PeeringDbConfig peeringdb;
  WebsiteConfig websites;
  DnsConfig dns;
  GeoIpConfig geoip;
  CfsConfig cfs;
  // Fault-injection schedule (net/faults.h). Defaults to all-zero
  // intensities, in which case no FaultPlane is even constructed and the
  // pipeline is byte-identical to one without a fault plane.
  FaultPlan faults;
  // Worker threads for campaign speculation and CFS classification.
  // 0 = hardware concurrency; 1 (the reference) constructs no pool at all
  // and runs the historical serial code paths. Reports are byte-identical
  // at every value (docs/PARALLELISM.md).
  int threads = 1;
  double community_adoption = 0.6;
  std::uint64_t seed = 4242;

  // Out-of-core spill (docs/SCALE.md): when enabled, the initial campaign
  // streams kept traces to a column corpus under `dir` instead of
  // accumulating them in memory, and CFS folds the corpus via mmap.
  // Reports are byte-identical to the in-memory engine at every thread
  // count.
  struct SpillConfig {
    bool enabled = false;
    std::string dir;  // corpus directory (required when enabled)
  };
  SpillConfig spill;

  // Presets mirroring the generator scales.
  static PipelineConfig tiny();
  static PipelineConfig small_scale();
  static PipelineConfig paper_scale();
};

// Owns every stage; construction order is the dependency order.
class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  // --- the paper's workflow ---
  // Initial traceroute campaign toward the given target ASes from a sample
  // of vantage points per platform (fractions of each platform's pool).
  [[nodiscard]] std::vector<TraceResult> initial_campaign(
      const std::vector<Asn>& target_ases, double vp_fraction = 0.5);

  // Spill-aware initial campaign: same VP sampling and serial pass, but
  // honouring config.spill — with spill enabled each kept trace is
  // appended to the corpus as the pass keeps it, and the corpus comes back
  // as an mmap-backed TraceStore; without it this is exactly
  // initial_campaign wrapped in a store.
  [[nodiscard]] corpus::TraceStore initial_campaign_store(
      const std::vector<Asn>& target_ases, double vp_fraction = 0.5);

  // Loads a previously written corpus directory as the initial traces
  // (replay mode — the campaign is skipped). Throws corpus::CorpusError
  // on a missing or damaged corpus.
  [[nodiscard]] corpus::TraceStore load_corpus(const std::string& dir) const;

  // Runs CFS over the traces (plus its own follow-ups).
  [[nodiscard]] CfsReport run_cfs(std::vector<TraceResult> traces);
  [[nodiscard]] CfsReport run_cfs(corpus::TraceStore traces);

  // Default interesting targets: the largest content and transit ASes.
  [[nodiscard]] std::vector<Asn> default_targets(int content, int transit) const;

  // --- accessors ---
  Topology& topology() { return topo_; }
  const Topology& topology() const { return topo_; }
  const VantagePointSet& vantage_points() const { return *vps_; }
  LookingGlassDirectory& looking_glasses() { return *lgs_; }
  FacilityDatabase& facility_db() { return *facility_db_; }
  const IpToAsnService& ip2asn() const { return *ip2asn_; }
  MeasurementCampaign& campaign() { return *campaign_; }
  TracerouteEngine& engine() { return *engine_; }
  const RoutingOracle& routing() const { return *routing_; }
  const ForwardingEngine& forwarding() const { return *forwarding_; }
  const CommunityRegistry& communities() const { return *communities_; }
  const DnsNames& dns() const { return *dns_; }
  const DropParser& drop() const { return *drop_; }
  const GeoIpDb& geoip() const { return *geoip_; }
  const IxpWebsiteSource& ixp_websites() const { return *ixp_sites_; }
  const NocWebsiteSource& noc_websites() const { return *noc_; }
  ValidationHarness& validation() { return *validation_; }
  const PipelineConfig& config() const { return config_; }
  // Null when the configured FaultPlan has all-zero intensities.
  FaultPlane* faults() { return faults_.get(); }
  // Null when the resolved thread count is 1 (`--threads 1` bypasses the
  // pool entirely; tests assert this).
  ThreadPool* thread_pool() { return pool_.get(); }
  // Thread count after resolving 0 -> hardware concurrency.
  [[nodiscard]] int threads() const { return threads_; }

 private:
  // Shared halves of the campaign entry points: the per-platform VP
  // sample (consumes rng_ draws — both campaign paths must draw
  // identically) and the per-AS target list.
  [[nodiscard]] std::vector<const VantagePoint*> sample_probes(
      double vp_fraction);
  [[nodiscard]] std::vector<Ipv4> campaign_targets(
      const std::vector<Asn>& target_ases) const;

  PipelineConfig config_;
  // Registry baseline taken before any pipeline work (declared ahead of
  // topo_ so topology generation is already covered): run_cfs reports the
  // per-pipeline delta even though the trace registry is process-wide.
  MetricsSnapshot trace_baseline_ = Trace::metrics();
  Topology topo_;
  int threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;    // before its consumers
  std::unique_ptr<FaultPlane> faults_;  // before its consumers
  std::unique_ptr<LookingGlassDirectory> lgs_;
  std::unique_ptr<VantagePointSet> vps_;
  std::unique_ptr<RoutingOracle> routing_;
  std::unique_ptr<ForwardingEngine> forwarding_;
  std::unique_ptr<TracerouteEngine> engine_;
  std::unique_ptr<MeasurementCampaign> campaign_;
  std::unique_ptr<IpToAsnService> ip2asn_;
  std::unique_ptr<NocWebsiteSource> noc_;
  std::unique_ptr<IxpWebsiteSource> ixp_sites_;
  std::unique_ptr<FacilityDatabase> facility_db_;
  std::unique_ptr<CommunityRegistry> communities_;
  std::unique_ptr<DnsNames> dns_;
  std::unique_ptr<DropParser> drop_;
  std::unique_ptr<GeoIpDb> geoip_;
  std::unique_ptr<ValidationHarness> validation_;
  Rng rng_;
};

}  // namespace cfs
