// Sorted-vector set algebra vs a std::set reference model: intersection
// and subset agree with the reference under fuzzed inputs — empty,
// singleton and duplicate-heavy draws included — and the in-place
// intersection keeps its empty-result-writes-nothing guarantee the
// conflict-rejecting constraint fold depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/setops.h"

namespace cfs {
namespace {

using Set = std::set<std::uint32_t>;
using Vec = std::vector<std::uint32_t>;

Vec to_vec(const Set& s) { return Vec(s.begin(), s.end()); }

// Draws a sorted-unique vector through a std::set, with size and value
// universe chosen to make empty, singleton and near-identical (duplicate
// -heavy across draws) inputs all common.
Vec draw(Rng& rng) {
  const std::size_t size = rng.uniform(8) == 0 ? rng.uniform(2)  // empty-ish
                                               : rng.uniform(24);
  const std::uint64_t universe = 1 + rng.uniform(30);  // heavy overlap
  Set s;
  for (std::size_t i = 0; i < size; ++i)
    s.insert(static_cast<std::uint32_t>(rng.uniform(universe)));
  return to_vec(s);
}

TEST(SetOps, AgreesWithSetModelUnderFuzz) {
  Rng rng(20150815);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec a = draw(rng), b = draw(rng);
    const Set sa(a.begin(), a.end()), sb(b.begin(), b.end());

    Set ref_inter;
    for (auto v : sa)
      if (sb.count(v)) ref_inter.insert(v);

    ASSERT_EQ(set_intersect(a, b), to_vec(ref_inter)) << "trial " << trial;

    const bool ref_subset =
        std::includes(sb.begin(), sb.end(), sa.begin(), sa.end());
    ASSERT_EQ(set_subset(a, b), ref_subset) << "trial " << trial;

    // Outputs are themselves sorted-unique (closure under the algebra).
    ASSERT_TRUE(sorted_unique(set_intersect(a, b)));
  }
}

TEST(SetOps, InPlaceIntersectMatchesOutOfPlace) {
  Rng rng(404);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec a = draw(rng), b = draw(rng);
    const Vec expected = set_intersect(a, b);

    Vec scratch = a;
    const std::size_t n =
        intersect_in_place(scratch.data(), scratch.size(), b.data(), b.size());
    ASSERT_EQ(n, expected.size()) << "trial " << trial;
    ASSERT_EQ(Vec(scratch.begin(), scratch.begin() + n), expected)
        << "trial " << trial;
    if (expected.empty()) {
      // The load-bearing guarantee: an emptying intersection wrote
      // nothing, so the caller can reject it and keep the original set.
      ASSERT_EQ(scratch, a) << "trial " << trial;
    }
  }
}

TEST(SetOps, EdgeCases) {
  const Vec empty, one{7}, other{9}, both{7, 9};
  EXPECT_EQ(set_intersect(empty, empty), empty);
  EXPECT_TRUE(set_subset(empty, empty));
  EXPECT_TRUE(set_subset(empty, one));
  EXPECT_FALSE(set_subset(one, empty));
  EXPECT_TRUE(set_subset(one, both));
  EXPECT_FALSE(set_subset(both, one));
  EXPECT_EQ(set_intersect(one, other), empty);
  EXPECT_EQ(set_intersect(one, one), one);

  // Identical-span aliasing (the one aliasing form the contract allows).
  Vec self{1, 2, 3};
  EXPECT_EQ(intersect_in_place(self.data(), self.size(), self.data(),
                               self.size()),
            3u);
  EXPECT_EQ(self, (Vec{1, 2, 3}));
}

}  // namespace
}  // namespace cfs
