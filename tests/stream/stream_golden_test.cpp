// Frozen output of the streaming epoch engine (docs/STREAMING.md).
//
// StreamEngine.* and the stream_prefix oracle compare the engine with
// itself (split vs one-epoch folds, 1 vs N threads); nothing there pins
// what it produces. These tests fold one fixed schedule epoch by epoch and
// compare every epoch's canonical bytes with committed values, so a
// rewrite of the fold has to reproduce today's snapshots byte for byte.
//
// The schedule: tiny pipeline and schedule seed 3, 3 probe rounds, an
// outage at round 2, a PeeringDB delta at round 1 and 25% vantage-point
// churn per round, sliced into 100-event epochs (5 epochs). Seed 3 is the
// lowest seed at tiny scale whose final snapshot reaches every branch the
// coverage test below checks: multi-member alias sets, constraint
// conflicts, remote-suspect interfaces and switch-proximity far ends.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "core/pipeline.h"
#include "stream/engine.h"
#include "stream/schedule.h"
#include "util/strings.h"

namespace cfs {
namespace {

// hex64(fnv1a64(canonical)) after each epoch, in fold order.
constexpr const char* kEpochHashes[] = {
    "a45ac24a5abd0708", "d728d1503e539de2", "440d56fe3d3f95d0",
    "f5d6b37a317f3e8d", "222682b994a74768",
};

StreamScheduleConfig golden_schedule_config() {
  StreamScheduleConfig config;
  config.pipeline = PipelineConfig::tiny();
  config.pipeline.seed = 3;
  config.rounds = 3;
  config.outage_round = 2;
  config.pdb_delta_round = 1;
  config.churn_fraction = 0.25;
  config.seed = 3;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Folds the golden schedule and returns every epoch's snapshot.
std::vector<StreamSnapshot> fold_golden() {
  const StreamScheduleConfig config = golden_schedule_config();
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);
  StreamEngine engine(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db());
  std::vector<StreamSnapshot> snapshots;
  for (const auto& epoch : slice_epochs(schedule, /*events_per_epoch=*/100))
    snapshots.push_back(engine.fold_epoch(epoch));
  return snapshots;
}

TEST(StreamGolden, EpochCanonicalBytesMatchCommittedValues) {
  const std::vector<StreamSnapshot> snapshots = fold_golden();
  ASSERT_EQ(snapshots.size(), std::size(kEpochHashes));
  for (std::size_t e = 0; e < snapshots.size(); ++e)
    EXPECT_EQ(hex64(fnv1a64(snapshots[e].canonical)), kEpochHashes[e])
        << "epoch " << e + 1;

  const std::string expected =
      read_file(std::string(CFS_GOLDEN_DIR) + "/stream/tiny-seed3.canonical.json");
  ASSERT_FALSE(expected.empty()) << "golden file missing";
  const std::string& actual = snapshots.back().canonical;
  if (actual != expected) {
    std::size_t at = 0;
    while (at < actual.size() && at < expected.size() &&
           actual[at] == expected[at])
      ++at;
    FAIL() << "final canonical bytes differ from the golden at offset " << at
           << " (actual " << actual.size() << " bytes, golden "
           << expected.size() << ")";
  }
}

TEST(StreamGolden, PinnedSnapshotCoversTheFoldsBranches) {
  const std::vector<StreamSnapshot> snapshots = fold_golden();
  const CfsReport& report = snapshots.back().report;
  bool multi_member_alias = false;
  for (const auto& set : report.aliases.sets)
    multi_member_alias |= set.size() >= 2;
  bool conflict = false;
  bool remote_suspect = false;
  for (const auto& [addr, inf] : report.interfaces) {
    conflict |= inf.conflicts > 0;
    remote_suspect |= inf.remote_suspect;
  }
  bool far_by_proximity = false;
  for (const LinkInference& link : report.links)
    far_by_proximity |= link.far_by_proximity;
  EXPECT_TRUE(multi_member_alias);
  EXPECT_TRUE(conflict);
  EXPECT_TRUE(remote_suspect);
  EXPECT_TRUE(far_by_proximity);
}

}  // namespace
}  // namespace cfs
