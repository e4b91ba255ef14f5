#include "core/pipeline.h"

#include <gtest/gtest.h>

namespace cfs {
namespace {

TEST(PipelinePresets, ScalesOrderCorrectly) {
  const PipelineConfig tiny = PipelineConfig::tiny();
  const PipelineConfig small = PipelineConfig::small_scale();
  const PipelineConfig paper = PipelineConfig::paper_scale();
  EXPECT_LT(tiny.generator.metros, small.generator.metros);
  EXPECT_LT(small.generator.metros, paper.generator.metros);
  EXPECT_LT(tiny.platforms.atlas_target, paper.platforms.atlas_target);
  EXPECT_LE(tiny.cfs.max_iterations, paper.cfs.max_iterations);
}

TEST(PipelineWiring, AllStagesAccessible) {
  Pipeline pipeline(PipelineConfig::tiny());
  EXPECT_GT(pipeline.topology().ases().size(), 0u);
  EXPECT_GT(pipeline.vantage_points().all().size(), 0u);
  EXPECT_GT(pipeline.looking_glasses().entries().size(), 0u);
  EXPECT_GT(pipeline.communities().dictionary_size(), 0u);
  EXPECT_GT(pipeline.ixp_websites().member_table_count() +
                pipeline.noc_websites().publishers(),
            0u);
  // Data sources answer for a real address.
  const auto& as = pipeline.topology().ases().front();
  EXPECT_EQ(pipeline.ip2asn().lookup(as.prefixes.front().at(9)), as.asn);
}

TEST(PipelineTargets, DefaultTargetsRespectTypeAndCount) {
  Pipeline pipeline(PipelineConfig::tiny());
  const auto targets = pipeline.default_targets(2, 3);
  ASSERT_EQ(targets.size(), 5u);
  int content = 0;
  int transit = 0;
  for (const Asn asn : targets) {
    const auto type = pipeline.topology().as_of(asn).type;
    content += type == AsType::Content;
    transit += type == AsType::Tier1 || type == AsType::Transit;
  }
  EXPECT_EQ(content, 2);
  EXPECT_EQ(transit, 3);
}

TEST(PipelineTargets, TargetsOrderedByFootprint) {
  Pipeline pipeline(PipelineConfig::small_scale());
  const auto targets = pipeline.default_targets(3, 0);
  ASSERT_EQ(targets.size(), 3u);
  const auto& topo = pipeline.topology();
  EXPECT_GE(topo.as_of(targets[0]).facilities.size(),
            topo.as_of(targets[1]).facilities.size());
  EXPECT_GE(topo.as_of(targets[1]).facilities.size(),
            topo.as_of(targets[2]).facilities.size());
}

TEST(PipelineCampaign, VpFractionScalesTraceCount) {
  Pipeline p1(PipelineConfig::tiny());
  const auto small_run = p1.initial_campaign(p1.default_targets(1, 1), 0.2);
  Pipeline p2(PipelineConfig::tiny());
  const auto big_run = p2.initial_campaign(p2.default_targets(1, 1), 1.0);
  EXPECT_GT(big_run.size(), small_run.size());
}

// Figure 7's per-platform curves rely on CfsConfig::platform_filter: with
// initial traces from RIPE Atlas only, every follow-up and reverse probe
// must also come from an Atlas VP, so no interface is ever seen from
// another platform.
TEST(PipelineCfs, PlatformFilterKeepsEveryProbeOnThatPlatform) {
  PipelineConfig config = PipelineConfig::tiny();
  config.cfs.platform_filter = Platform::RipeAtlas;
  Pipeline pipeline(config);
  const VantagePointSet& vps = pipeline.vantage_points();

  std::vector<const VantagePoint*> atlas;
  std::size_t others = 0;
  for (const VantagePoint& vp : vps.all()) {
    if (vp.platform == Platform::RipeAtlas)
      atlas.push_back(&vp);
    else
      ++others;
  }
  ASSERT_FALSE(atlas.empty());
  ASSERT_GT(others, 0u);  // the filter has something to exclude

  std::vector<Ipv4> targets;
  for (const Asn asn : pipeline.default_targets(2, 2)) {
    const auto t = MeasurementCampaign::targets_for(pipeline.topology(), asn);
    targets.insert(targets.end(), t.begin(), t.end());
  }
  auto traces = pipeline.campaign().run(atlas, targets);
  const std::size_t initial = traces.size();
  const CfsReport report = pipeline.run_cfs(std::move(traces));
  ASSERT_GT(report.traces_used, initial);  // follow-ups did run

  ASSERT_FALSE(report.interfaces.empty());
  for (const auto& [addr, inference] : report.interfaces)
    for (const VantagePointId vp : inference.seen_from)
      EXPECT_EQ(vps.vp(vp).platform, Platform::RipeAtlas)
          << addr.to_string() << " seen from VP " << vp.value;
}

}  // namespace
}  // namespace cfs
