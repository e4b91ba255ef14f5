#include "core/pipeline.h"

#include <algorithm>

#include "data/corpus/corpus.h"
#include "util/log.h"

namespace cfs {

PipelineConfig PipelineConfig::tiny() {
  PipelineConfig c;
  c.generator = GeneratorConfig::tiny();
  c.platforms.atlas_target = 40;
  c.platforms.iplane_target = 8;
  c.platforms.ark_target = 5;
  c.cfs.max_iterations = 20;
  c.cfs.followup_interfaces = 16;
  return c;
}

PipelineConfig PipelineConfig::small_scale() {
  PipelineConfig c;
  c.generator = GeneratorConfig::small_scale();
  c.platforms.atlas_target = 250;
  c.platforms.iplane_target = 30;
  c.platforms.ark_target = 15;
  c.cfs.max_iterations = 40;
  return c;
}

PipelineConfig PipelineConfig::paper_scale() {
  PipelineConfig c;
  c.generator = GeneratorConfig::paper_scale();
  c.platforms.atlas_target = 1600;
  c.platforms.iplane_target = 120;
  c.platforms.ark_target = 60;
  c.cfs.max_iterations = 100;
  c.cfs.followup_interfaces = 64;
  return c;
}

Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config),
      topo_(generate_topology(config.generator)),
      rng_(config.seed) {
  // Resolve the thread count, then only build a pool when genuinely
  // parallel: --threads 1 is the reference implementation and must run the
  // historical serial code with no pool in existence.
  threads_ = config.threads == 0
                 ? static_cast<int>(ThreadPool::hardware_threads())
                 : std::max(1, config.threads);
  if (threads_ > 1)
    pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads_));

  // The plane only exists when some fault intensity is non-zero, so the
  // zero-plan configuration runs the exact pre-fault-plane code paths.
  if (config.faults.any())
    faults_ = std::make_unique<FaultPlane>(config.faults, config.seed);

  auto lg_config = config.looking_glasses;
  lg_config.seed ^= config.seed;
  lgs_ = std::make_unique<LookingGlassDirectory>(topo_, lg_config);

  auto platform_config = config.platforms;
  platform_config.seed ^= config.seed;
  vps_ = std::make_unique<VantagePointSet>(topo_, *lgs_, platform_config);

  routing_ = std::make_unique<RoutingOracle>(topo_);
  forwarding_ = std::make_unique<ForwardingEngine>(topo_, *routing_);
  engine_ = std::make_unique<TracerouteEngine>(
      topo_, *forwarding_, config.engine, config.seed, faults_.get());
  campaign_ = std::make_unique<MeasurementCampaign>(topo_, *engine_, *lgs_,
                                                    faults_.get());
  campaign_->set_pool(pool_.get());

  ip2asn_ = std::make_unique<IpToAsnService>(topo_);
  auto pdb_config = config.peeringdb;
  pdb_config.seed ^= config.seed;
  PeeringDb raw_pdb(topo_, pdb_config);
  auto web_config = config.websites;
  web_config.seed ^= config.seed;
  noc_ = std::make_unique<NocWebsiteSource>(topo_, web_config);
  ixp_sites_ = std::make_unique<IxpWebsiteSource>(topo_, web_config);
  facility_db_ = std::make_unique<FacilityDatabase>(topo_, std::move(raw_pdb),
                                                    *noc_, *ixp_sites_);
  if (faults_ != nullptr && config.faults.peeringdb_withheld > 0.0)
    facility_db_->withhold(topo_, *faults_, config.faults.peeringdb_withheld);

  communities_ = std::make_unique<CommunityRegistry>(
      topo_, config.community_adoption, config.seed ^ 0xc0117);
  auto dns_config = config.dns;
  dns_config.seed ^= config.seed;
  // DNS rot is already hash-per-address; degrading the snapshot just raises
  // the missing-record rate (no draw-order coupling to disturb).
  if (faults_ != nullptr)
    dns_config.record_missing = std::min(
        1.0, dns_config.record_missing + config.faults.dns_withheld);
  dns_ = std::make_unique<DnsNames>(topo_, dns_config);
  drop_ = std::make_unique<DropParser>(*dns_);
  auto geo_config = config.geoip;
  geo_config.seed ^= config.seed;
  if (faults_ != nullptr)
    geo_config.record_missing = config.faults.geoip_withheld;
  geoip_ = std::make_unique<GeoIpDb>(topo_, geo_config);

  ValidationHarness::Config vconfig;
  vconfig.cooperating_operators = default_targets(2, 0);
  validation_ = std::make_unique<ValidationHarness>(
      topo_, *communities_, *lgs_, *dns_, *drop_, *ixp_sites_, vconfig);
}

std::vector<Asn> Pipeline::default_targets(int content, int transit) const {
  // Largest footprint first within each type.
  std::vector<const AutonomousSystem*> contents;
  std::vector<const AutonomousSystem*> transits;
  for (const auto& as : topo_.ases()) {
    if (as.type == AsType::Content) contents.push_back(&as);
    if (as.type == AsType::Tier1 || as.type == AsType::Transit)
      transits.push_back(&as);
  }
  auto by_footprint = [](const AutonomousSystem* a,
                         const AutonomousSystem* b) {
    return a->facilities.size() > b->facilities.size();
  };
  std::sort(contents.begin(), contents.end(), by_footprint);
  std::sort(transits.begin(), transits.end(), by_footprint);

  std::vector<Asn> out;
  for (int i = 0; i < content && i < static_cast<int>(contents.size()); ++i)
    out.push_back(contents[static_cast<std::size_t>(i)]->asn);
  for (int i = 0; i < transit && i < static_cast<int>(transits.size()); ++i)
    out.push_back(transits[static_cast<std::size_t>(i)]->asn);
  return out;
}

std::vector<const VantagePoint*> Pipeline::sample_probes(double vp_fraction) {
  // Sample vantage points per platform, as the paper uses "more than 95%
  // of active Atlas nodes" but rations looking glasses.
  std::vector<const VantagePoint*> probes;
  for (const Platform platform :
       {Platform::RipeAtlas, Platform::LookingGlass, Platform::IPlane,
        Platform::Ark}) {
    auto pool = vps_->of(platform);
    const std::size_t want = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(pool.size()) *
                                    vp_fraction));
    const auto idx = rng_.sample_indices(pool.size(),
                                         std::min(want, pool.size()));
    for (const std::size_t i : idx) probes.push_back(pool[i]);
  }
  return probes;
}

std::vector<Ipv4> Pipeline::campaign_targets(
    const std::vector<Asn>& target_ases) const {
  std::vector<Ipv4> targets;
  for (const Asn asn : target_ases) {
    const auto per_as = MeasurementCampaign::targets_for(topo_, asn);
    targets.insert(targets.end(), per_as.begin(), per_as.end());
  }
  return targets;
}

std::vector<TraceResult> Pipeline::initial_campaign(
    const std::vector<Asn>& target_ases, double vp_fraction) {
  const auto probes = sample_probes(vp_fraction);
  const auto targets = campaign_targets(target_ases);

  log_info() << "initial campaign: " << probes.size() << " VPs x "
             << targets.size() << " targets";
  TraceSpan span("pipeline.initial_campaign");
  span.arg("vps", probes.size());
  span.arg("targets", targets.size());
  auto traces = campaign_->run(probes, targets);
  span.arg("traces", traces.size());
  return traces;
}

corpus::TraceStore Pipeline::initial_campaign_store(
    const std::vector<Asn>& target_ases, double vp_fraction) {
  if (!config_.spill.enabled)
    return corpus::TraceStore(initial_campaign(target_ases, vp_fraction));
  if (config_.spill.dir.empty())
    throw corpus::CorpusError("<spill>", 0,
                              "spill enabled without a corpus directory");

  const auto probes = sample_probes(vp_fraction);
  const auto targets = campaign_targets(target_ases);

  log_info() << "initial campaign (spill): " << probes.size() << " VPs x "
             << targets.size() << " targets -> " << config_.spill.dir;
  TraceSpan span("pipeline.initial_campaign");
  span.arg("vps", probes.size());
  span.arg("targets", targets.size());

  corpus::TraceCorpusWriter writer(config_.spill.dir);
  campaign_->run(probes, targets,
                 [&writer](const VantagePoint&, TraceResult&& trace) {
                   writer.append(trace);
                 });
  span.arg("traces", writer.finish().traces);
  return corpus::TraceStore(corpus::TraceCorpusReader::open(config_.spill.dir));
}

corpus::TraceStore Pipeline::load_corpus(const std::string& dir) const {
  return corpus::TraceStore(corpus::TraceCorpusReader::open(dir));
}

CfsReport Pipeline::run_cfs(std::vector<TraceResult> traces) {
  return run_cfs(corpus::TraceStore(std::move(traces)));
}

CfsReport Pipeline::run_cfs(corpus::TraceStore traces) {
  ConstrainedFacilitySearch cfs(topo_, *facility_db_, *ip2asn_, *campaign_,
                                *vps_, config_.cfs, pool_.get());
  CfsReport report = cfs.run(std::move(traces));
  // CFS only sees the facility database; fold in what the other degraded
  // sources withheld so the report accounts for the full fault plan.
  report.metrics.faults.records_withheld += geoip_->records_withheld();
  // Everything this pipeline did — topology generation, campaign, CFS —
  // as a per-run view of the process-wide registry.
  report.metrics.registry = Trace::metrics_since(trace_baseline_);
  return report;
}

}  // namespace cfs
