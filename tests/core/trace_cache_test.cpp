// TraceCache (core/trace_cache.h): the per-trace Step-1 cache both engines
// classify through. `reclassify(changed)` must re-derive exactly the rows a
// correction can affect and leave the cache equal to a from-scratch
// classification; the pooled fan-out must match the serial one. The suite
// lives in the test_parallel binary so the ThreadSanitizer job runs it.
#include "core/trace_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"

namespace cfs {
namespace {

struct World {
  Pipeline pipeline;
  std::vector<TraceResult> traces;

  World() : pipeline(config()) {
    traces = pipeline.initial_campaign(pipeline.default_targets(1, 1), 0.5);
  }

  static PipelineConfig config() {
    PipelineConfig c = PipelineConfig::tiny();
    c.seed = 17;
    c.threads = 1;
    return c;
  }

  // Re-owns every fifth distinct responded hop address to an AS other than
  // its raw owner: corrections that move classifications in some rows and
  // leave the rest alone.
  [[nodiscard]] std::unordered_map<Ipv4, Asn> corrections() const {
    std::unordered_map<Ipv4, Asn> out;
    std::set<Ipv4> seen;
    const auto& ases = pipeline.topology().ases();
    for (const TraceResult& trace : traces) {
      for (const Hop& hop : trace.hops) {
        if (!hop.responded || !seen.insert(hop.address).second) continue;
        if (seen.size() % 5 != 0) continue;
        const auto raw = pipeline.ip2asn().lookup(hop.address);
        out.emplace(hop.address,
                    raw && *raw == ases[0].asn ? ases[1].asn : ases[0].asn);
      }
    }
    return out;
  }
};

TEST(TraceCache, ReclassifyRederivesExactlyTheRowsTouchingAChange) {
  const World world;
  const IpToAsnService& ip2asn = world.pipeline.ip2asn();
  TraceCache cache(corpus::TraceStore(world.traces));
  InterfaceAsnMap map(ip2asn);
  EXPECT_EQ(cache.classify_new(HopClassifier(ip2asn, map)), 0u);
  ASSERT_EQ(cache.cached(), world.traces.size());
  const std::vector<std::vector<PeeringObservation>> before =
      cache.observations();

  map.apply_border_corrections(world.corrections());
  const std::vector<Ipv4> changed = map.take_changed();
  ASSERT_FALSE(changed.empty());
  const HopClassifier classifier(ip2asn, map);
  const std::vector<std::uint32_t> rows = cache.reclassify(classifier, changed);

  // Brute force: every row with a responded hop at a changed address.
  const std::set<Ipv4> changed_set(changed.begin(), changed.end());
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < world.traces.size(); ++i) {
    for (const Hop& hop : world.traces[i].hops) {
      if (hop.responded && changed_set.count(hop.address) != 0) {
        expected.push_back(static_cast<std::uint32_t>(i));
        break;
      }
    }
  }
  EXPECT_EQ(rows, expected);
  EXPECT_LT(rows.size(), world.traces.size());

  // The cache now equals a from-scratch classification under the new map,
  // and the corrections did move some rows' observations.
  std::size_t moved = 0;
  for (std::size_t i = 0; i < world.traces.size(); ++i) {
    EXPECT_EQ(cache.observations()[i], classifier.classify(world.traces[i]))
        << "row " << i;
    moved += cache.observations()[i] != before[i];
  }
  EXPECT_GT(moved, 0u);
}

TEST(TraceCache, PooledFanOutMatchesSerial) {
  const World world;
  ASSERT_GE(world.traces.size(), 64u);  // above the fan-out threshold
  const IpToAsnService& ip2asn = world.pipeline.ip2asn();
  ThreadPool pool(4);
  TraceCache serial(corpus::TraceStore(world.traces));
  TraceCache pooled(corpus::TraceStore(world.traces), &pool);

  InterfaceAsnMap map(ip2asn);
  serial.classify_new(HopClassifier(ip2asn, map));
  pooled.classify_new(HopClassifier(ip2asn, map));
  EXPECT_EQ(pooled.observations(), serial.observations());

  map.apply_border_corrections(world.corrections());
  const std::vector<Ipv4> changed = map.take_changed();
  const HopClassifier classifier(ip2asn, map);
  EXPECT_EQ(pooled.reclassify(classifier, changed),
            serial.reclassify(classifier, changed));
  EXPECT_EQ(pooled.observations(), serial.observations());
  pooled.reclassify_all(classifier);
  EXPECT_EQ(pooled.observations(), serial.observations());
}

}  // namespace
}  // namespace cfs
