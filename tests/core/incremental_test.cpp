// Incremental-engine contract: the dirty-set/cache path must be
// observationally identical to the full re-scan path, the follow-up
// budget must only be charged for slots that probe, and remote_suspect
// must be a sticky OR over the evidence rather than last-writer-wins.
#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>

#include "core/candidates.h"
#include "core/iface_table.h"
#include "core/pipeline.h"
#include "core/remote.h"

namespace cfs {
namespace {

CfsReport run_pipeline(PipelineConfig config, bool incremental) {
  config.cfs.incremental = incremental;
  Pipeline pipeline(config);
  auto traces =
      pipeline.initial_campaign(pipeline.default_targets(2, 2), 0.6);
  return pipeline.run_cfs(std::move(traces));
}

// Everything except metrics (timings differ by construction) and
// InterfaceInference::conflicts (the full engine re-counts the same
// conflicting observation every sweep; the incremental one does not
// re-visit clean observations, so the tally is engine-specific).
void expect_identical(const CfsReport& full, const CfsReport& inc) {
  EXPECT_EQ(full.traces_used, inc.traces_used);
  EXPECT_EQ(full.iterations_run, inc.iterations_run);
  EXPECT_EQ(full.resolved_per_iteration, inc.resolved_per_iteration);
  EXPECT_EQ(full.aliases.sets, inc.aliases.sets);
  EXPECT_EQ(full.aliases.unresolved, inc.aliases.unresolved);

  ASSERT_EQ(full.links.size(), inc.links.size());
  for (std::size_t i = 0; i < full.links.size(); ++i) {
    const LinkInference& a = full.links[i];
    const LinkInference& b = inc.links[i];
    EXPECT_TRUE(a.obs == b.obs) << "link " << i;
    EXPECT_EQ(a.type, b.type) << "link " << i;
    EXPECT_EQ(a.near_facility, b.near_facility) << "link " << i;
    EXPECT_EQ(a.far_facility, b.far_facility) << "link " << i;
    EXPECT_EQ(a.far_by_proximity, b.far_by_proximity) << "link " << i;
  }

  ASSERT_EQ(full.interfaces.size(), inc.interfaces.size());
  for (const auto& [addr, inf] : full.interfaces) {
    const InterfaceInference* other = inc.find(addr);
    ASSERT_NE(other, nullptr) << addr.to_string();
    EXPECT_EQ(inf.asn, other->asn) << addr.to_string();
    EXPECT_EQ(inf.has_constraint, other->has_constraint) << addr.to_string();
    EXPECT_EQ(inf.candidates, other->candidates) << addr.to_string();
    EXPECT_EQ(inf.remote_suspect, other->remote_suspect) << addr.to_string();
    EXPECT_EQ(inf.resolved_iteration, other->resolved_iteration)
        << addr.to_string();
    EXPECT_EQ(inf.seen_from, other->seen_from) << addr.to_string();
    EXPECT_EQ(inf.queried_ixps, other->queried_ixps) << addr.to_string();
  }
}

TEST(IncrementalCfs, MatchesFullEngineOnTinyPipeline) {
  const CfsReport full = run_pipeline(PipelineConfig::tiny(), false);
  const CfsReport inc = run_pipeline(PipelineConfig::tiny(), true);
  expect_identical(full, inc);

  EXPECT_FALSE(full.metrics.incremental);
  EXPECT_TRUE(inc.metrics.incremental);
  EXPECT_EQ(full.metrics.alias_refreshes, inc.metrics.alias_refreshes);

  // The dirty set never re-processes more than the full sweep does, and
  // refreshes never re-classify more than the whole corpus.
  std::size_t full_constrained = 0;
  std::size_t inc_constrained = 0;
  for (const auto& row : full.metrics.iterations)
    full_constrained += row.constrained_observations;
  for (const auto& row : inc.metrics.iterations)
    inc_constrained += row.constrained_observations;
  EXPECT_LE(inc_constrained, full_constrained);
  EXPECT_LE(inc.metrics.reclassified_observations,
            full.metrics.reclassified_observations);
}

TEST(IncrementalCfs, MetricsRowPerIteration) {
  const CfsReport report = run_pipeline(PipelineConfig::tiny(), true);
  const CfsMetrics& m = report.metrics;
  ASSERT_EQ(m.iterations.size(), report.iterations_run);
  ASSERT_EQ(report.resolved_per_iteration.size(), report.iterations_run);
  for (std::size_t i = 0; i < m.iterations.size(); ++i) {
    EXPECT_EQ(m.iterations[i].iteration, i + 1);
    EXPECT_EQ(m.iterations[i].resolved, report.resolved_per_iteration[i]);
  }
  EXPECT_GT(m.initial_traces, 0u);
  EXPECT_GT(m.initial_observations, 0u);
  EXPECT_GT(m.alias_refreshes, 0u);
}

// Regression for the follow-up budget leak: a slot whose target scoring
// comes up empty must not consume one of the followup_interfaces slots.
// With the fix, every iteration either exhausts the budget with *probing*
// slots or walks the whole pool (each slot probing or skipping).
TEST(IncrementalCfs, FollowupBudgetOnlyChargedForLaunchedSlots) {
  for (const bool incremental : {false, true}) {
    const CfsReport report =
        run_pipeline(PipelineConfig::tiny(), incremental);
    for (const auto& row : report.metrics.iterations) {
      EXPECT_LE(row.followups_launched, row.followup_budget);
      EXPECT_TRUE(row.followups_launched == row.followup_budget ||
                  row.followups_launched + row.followups_skipped ==
                      row.followup_pool)
          << "iteration " << row.iteration << ": launched "
          << row.followups_launched << ", skipped " << row.followups_skipped
          << ", pool " << row.followup_pool;
    }
  }
}

// Regression for remote_suspect flapping: the flag must be the OR of the
// per-observation verdicts, not whatever the last-scanned observation
// said. Recompute the verdicts from the final observation set and the
// public databases (mirroring Step 2's three remote triggers): every
// trigger present in the final set must have stuck. The converse does
// not hold — the flag is sticky over observation *history*, and an
// observation from a pre-refresh ASN-map generation can legitimately
// have set it before re-classification replaced the observation.
TEST(IncrementalCfs, RemoteSuspectIsStickyOrOverObservations) {
  const PipelineConfig config = PipelineConfig::tiny();
  Pipeline pipeline(config);
  auto traces =
      pipeline.initial_campaign(pipeline.default_targets(2, 2), 0.6);
  const CfsReport report = pipeline.run_cfs(std::move(traces));

  const RemotePeeringDetector detector(config.cfs.remote);
  const FacilityDatabase& db = pipeline.facility_db();
  const Topology& topo = pipeline.topology();

  std::unordered_map<Ipv4, bool> expected;
  for (const LinkInference& link : report.links) {
    const PeeringObservation& obs = link.obs;
    const auto& fa = db.facilities_of(obs.near_as);
    const auto& fb = db.facilities_of(obs.far_as);
    if (obs.kind == PeeringKind::Public) {
      const auto& fe = db.ixp_facilities(obs.ixp);
      if (!fa.empty() && facility_intersection(fa, fe).empty()) {
        bool metro_overlap = false;
        for (const FacilityId af : fa)
          for (const FacilityId ef : fe)
            if (topo.metro_of(af) == topo.metro_of(ef)) metro_overlap = true;
        if (!metro_overlap) expected[obs.near_addr] = true;
      }
      if (!fb.empty() && detector.far_side_remote(obs))
        expected[obs.far_addr] = true;
    } else if (detector.far_side_remote(obs)) {
      expected[obs.far_addr] = true;
    }
  }

  for (const auto& [addr, inf] : report.interfaces)
    if (expected.contains(addr))
      EXPECT_TRUE(inf.remote_suspect) << addr.to_string();
}

// Debug builds must reject unsorted facility lists at the set-algebra
// boundary (std::set_intersection/includes silently misbehave on them).
TEST(IncrementalCfs, UnsortedFacilityInputsAssertInDebug) {
  const std::vector<FacilityId> unsorted{FacilityId(3), FacilityId(1)};
  const std::vector<FacilityId> sorted{FacilityId(0), FacilityId(2)};
  EXPECT_DEBUG_DEATH(facility_intersection(unsorted, sorted), "sorted");
  EXPECT_DEBUG_DEATH(std::ignore = facility_subset(sorted, unsorted),
                     "sorted");
  IfaceTable table;
  table.ensure_rows(1);
  EXPECT_DEBUG_DEATH(
      std::ignore = table.constrain(0, unsorted.data(), unsorted.size(), 1),
      "sorted");
}

}  // namespace
}  // namespace cfs
