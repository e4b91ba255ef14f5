// IfaceTable row bookkeeping: presence, last-writer addr/asn, push-if-absent
// side lists, in-place narrowing and materialisation. The narrowing and
// conflict rules themselves are the Candidates.* cases.
#include "core/iface_table.h"

#include <gtest/gtest.h>

namespace cfs {
namespace {

std::vector<FacilityId> facs(std::initializer_list<std::uint32_t> ids) {
  std::vector<FacilityId> out;
  for (const auto id : ids) out.emplace_back(id);
  return out;
}

TEST(IfaceTable, RowsBecomePresentOnFirstTouchAndLastTouchWins) {
  IfaceTable table;
  table.ensure_rows(3);
  EXPECT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.present_count(), 0u);
  EXPECT_FALSE(table.present(1));

  table.touch(1, Ipv4(0x0a000001), Asn(100));
  table.touch(1, Ipv4(0x0a000001), Asn(200));
  EXPECT_TRUE(table.present(1));
  EXPECT_FALSE(table.present(0));
  EXPECT_EQ(table.present_count(), 1u);
  EXPECT_EQ(table.asn(1), Asn(200));

  table.ensure_rows(2);  // never shrinks
  EXPECT_EQ(table.rows(), 3u);
  EXPECT_TRUE(table.present(1));
}

TEST(IfaceTable, SideListsArePushIfAbsentInFirstSeenOrder) {
  IfaceTable table;
  table.ensure_rows(1);
  table.note_seen_from(0, VantagePointId(7));
  table.note_seen_from(0, VantagePointId(3));
  table.note_seen_from(0, VantagePointId(7));
  table.add_queried_ixp(0, IxpId(2));
  table.add_queried_ixp(0, IxpId(2));
  const std::vector<VantagePointId> first_seen{VantagePointId(7),
                                               VantagePointId(3)};
  EXPECT_EQ(table.seen_from(0), first_seen);
  EXPECT_EQ(table.queried_ixps(0), std::vector<IxpId>{IxpId(2)});
}

TEST(IfaceTable, NarrowingShrinksTheFirstSpanInPlace) {
  IfaceTable table;
  table.ensure_rows(1);
  const std::vector<FacilityId> wide = facs({1, 2, 5, 9});
  ASSERT_TRUE(table.constrain(0, wide.data(), wide.size(), 1));
  const FacilityId* span = table.cand_data(0);
  const std::uint64_t bytes = table.arena_bytes();

  const std::vector<FacilityId> narrow = facs({2, 9, 11});
  EXPECT_TRUE(table.constrain(0, narrow.data(), narrow.size(), 2));
  EXPECT_EQ(table.cand_data(0), span);
  EXPECT_EQ(table.arena_bytes(), bytes);
  EXPECT_EQ(table.cand_size(0), 2u);
  EXPECT_EQ(span[0], FacilityId(2));
  EXPECT_EQ(span[1], FacilityId(9));
}

TEST(IfaceTable, MaterializeCopiesEveryColumn) {
  IfaceTable table;
  table.ensure_rows(2);
  table.touch(1, Ipv4(0x0a000002), Asn(300));
  table.mark_remote(1);
  table.note_seen_from(1, VantagePointId(4));
  table.add_queried_ixp(1, IxpId(6));
  const std::vector<FacilityId> first = facs({3, 4});
  const std::vector<FacilityId> clash = facs({8});
  const std::vector<FacilityId> pin = facs({4});
  table.constrain(1, first.data(), first.size(), 1);
  table.constrain(1, clash.data(), clash.size(), 2);
  table.constrain(1, pin.data(), pin.size(), 3);

  const InterfaceInference inf = table.materialize(1);
  EXPECT_EQ(inf.addr, Ipv4(0x0a000002));
  EXPECT_EQ(inf.asn, Asn(300));
  EXPECT_TRUE(inf.has_constraint);
  EXPECT_EQ(inf.candidates, facs({4}));
  EXPECT_TRUE(inf.remote_suspect);
  EXPECT_EQ(inf.resolved_iteration, 3);
  EXPECT_EQ(inf.conflicts, 1);
  EXPECT_EQ(inf.seen_from, std::vector<VantagePointId>{VantagePointId(4)});
  EXPECT_EQ(inf.queried_ixps, std::vector<IxpId>{IxpId(6)});

  const InterfaceInference untouched = table.materialize(0);
  EXPECT_FALSE(untouched.has_constraint);
  EXPECT_TRUE(untouched.candidates.empty());
  EXPECT_EQ(untouched.resolved_iteration, -1);
}

}  // namespace
}  // namespace cfs
