#include "core/candidates.h"

#include <gtest/gtest.h>

#include "core/iface_table.h"

#include "support/mini_net.h"

namespace cfs {
namespace {

std::vector<FacilityId> facs(std::initializer_list<std::uint32_t> ids) {
  std::vector<FacilityId> out;
  for (const auto id : ids) out.emplace_back(id);
  return out;
}

TEST(Candidates, IntersectionBasics) {
  EXPECT_EQ(facility_intersection(facs({1, 2, 5}), facs({2, 3, 5})),
            facs({2, 5}));
  EXPECT_TRUE(facility_intersection(facs({1}), facs({2})).empty());
  EXPECT_TRUE(facility_intersection({}, facs({1})).empty());
}

TEST(Candidates, SubsetBasics) {
  EXPECT_TRUE(facility_subset(facs({2, 5}), facs({1, 2, 5})));
  EXPECT_TRUE(facility_subset({}, facs({1})));
  EXPECT_FALSE(facility_subset(facs({1, 9}), facs({1, 2, 5})));
}

// Candidate narrowing lives in IfaceTable::constrain, the one constraint
// kernel both engines share (core/fold.h). Row 0 of a one-row table is the
// interface under test.
struct OneRow {
  IfaceTable table;
  OneRow() {
    table.ensure_rows(1);
    table.touch(0, Ipv4(0x0a000001), Asn(64500));
  }
  bool constrain(const std::vector<FacilityId>& allowed, int iteration) {
    return table.constrain(0, allowed.data(), allowed.size(), iteration);
  }
  [[nodiscard]] InterfaceInference row() const { return table.materialize(0); }
};

TEST(Candidates, FirstConstraintAdopted) {
  OneRow t;
  EXPECT_FALSE(t.table.has_constraint(0));
  EXPECT_TRUE(t.constrain(facs({1, 2, 5}), 3));
  EXPECT_TRUE(t.table.has_constraint(0));
  EXPECT_FALSE(t.table.resolved(0));
  EXPECT_EQ(t.row().candidates, facs({1, 2, 5}));
  EXPECT_EQ(t.row().resolved_iteration, -1);
}

TEST(Candidates, IntersectionNarrowsToResolution) {
  OneRow t;
  t.constrain(facs({2, 5}), 1);                // paper Fig. 5: A.1 -> {f2, f5}
  EXPECT_TRUE(t.constrain(facs({1, 2}), 2));   // A.3 -> {f1, f2}
  EXPECT_TRUE(t.table.resolved(0));
  EXPECT_EQ(t.row().facility(), FacilityId(2));
  EXPECT_EQ(t.row().resolved_iteration, 2);
}

TEST(Candidates, EmptyIntersectionIsConflictNotErasure) {
  OneRow t;
  t.constrain(facs({1, 2}), 1);
  EXPECT_FALSE(t.constrain(facs({7, 8}), 2));
  EXPECT_EQ(t.row().candidates, facs({1, 2}));
  EXPECT_EQ(t.row().conflicts, 1);
}

TEST(Candidates, EmptyAllowedIsIgnored) {
  OneRow t;
  EXPECT_FALSE(t.constrain({}, 1));
  EXPECT_FALSE(t.table.has_constraint(0));
}

TEST(Candidates, RepeatedSameConstraintIsNoop) {
  OneRow t;
  t.constrain(facs({1, 2}), 1);
  EXPECT_FALSE(t.constrain(facs({1, 2}), 2));
  EXPECT_EQ(t.row().conflicts, 0);
}

TEST(Candidates, ResolvedIterationRecordedOnFirstConstraintWhenSingleton) {
  OneRow t;
  t.constrain(facs({4}), 7);
  EXPECT_TRUE(t.table.resolved(0));
  EXPECT_EQ(t.row().resolved_iteration, 7);
}

TEST(Candidates, CityLevelConstraint) {
  testing::MiniNet net;  // fac 0..3 in metro m0, fac 4..5 in m1
  InterfaceInference inf;
  inf.has_constraint = true;
  inf.candidates = facs({1, 2, 3});
  const auto city = inf.city(net.topo);
  ASSERT_TRUE(city.has_value());
  EXPECT_EQ(*city, net.m0);

  InterfaceInference cross_metro;
  cross_metro.has_constraint = true;
  cross_metro.candidates = facs({1, 4});
  EXPECT_FALSE(cross_metro.city(net.topo).has_value());

  InterfaceInference unconstrained;
  EXPECT_FALSE(unconstrained.city(net.topo).has_value());
}

}  // namespace
}  // namespace cfs
