#include "rtree/split.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/prng.h"

namespace warpindex {
namespace {

EntryArray RandomEntries(size_t n, int dims, Prng* prng) {
  EntryArray entries(dims);
  entries.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p;
    p.dims = dims;
    for (int d = 0; d < dims; ++d) {
      p[d] = prng->UniformDouble(0.0, 100.0);
    }
    entries.Push(Rect::FromPoint(p), static_cast<int64_t>(i));
  }
  return entries;
}

class SplitPolicyTest : public testing::TestWithParam<SplitPolicy> {};

TEST_P(SplitPolicyTest, PreservesAllEntries) {
  Prng prng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = static_cast<size_t>(prng.UniformInt(2, 40));
    auto entries = RandomEntries(n, 2, &prng);
    auto [a, b] = SplitEntries(entries, /*min_fill=*/std::max<size_t>(1, n / 3),
                               GetParam());
    EXPECT_EQ(a.size() + b.size(), n);
    std::vector<int64_t> ids;
    for (size_t i = 0; i < a.size(); ++i) ids.push_back(a.ref(i));
    for (size_t i = 0; i < b.size(); ++i) ids.push_back(b.ref(i));
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ids[i], static_cast<int64_t>(i));
    }
  }
}

TEST_P(SplitPolicyTest, RespectsMinFill) {
  Prng prng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = static_cast<size_t>(prng.UniformInt(4, 60));
    const size_t min_fill = std::max<size_t>(1, n * 2 / 5);
    auto entries = RandomEntries(n, 3, &prng);
    auto [a, b] = SplitEntries(entries, min_fill, GetParam());
    const size_t effective = std::min(min_fill, n / 2);
    EXPECT_GE(a.size(), effective);
    EXPECT_GE(b.size(), effective);
  }
}

TEST_P(SplitPolicyTest, HandlesMinimumInput) {
  Prng prng(3);
  auto entries = RandomEntries(2, 2, &prng);
  auto [a, b] = SplitEntries(entries, 1, GetParam());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST_P(SplitPolicyTest, HandlesDuplicatePoints) {
  // All entries at the same location: splits must still satisfy fill
  // constraints rather than loop or crash.
  EntryArray entries(2);
  for (int i = 0; i < 10; ++i) {
    entries.Push(Rect::FromPoint(Point::Make({1.0, 1.0})), i);
  }
  auto [a, b] = SplitEntries(entries, 4, GetParam());
  EXPECT_EQ(a.size() + b.size(), 10u);
  EXPECT_GE(a.size(), 4u);
  EXPECT_GE(b.size(), 4u);
}

TEST_P(SplitPolicyTest, SeparatesTwoObviousClusters) {
  // Two tight clusters far apart: any sane split puts each cluster in one
  // group (checked via group MBR disjointness).
  EntryArray entries(2);
  Prng prng(4);
  for (int i = 0; i < 10; ++i) {
    entries.Push(Rect::FromPoint(Point::Make({prng.UniformDouble(0.0, 1.0),
                                              prng.UniformDouble(0.0, 1.0)})),
                 i);
    entries.Push(
        Rect::FromPoint(Point::Make({prng.UniformDouble(100.0, 101.0),
                                     prng.UniformDouble(100.0, 101.0)})),
        100 + i);
  }
  auto [a, b] = SplitEntries(entries, 8, GetParam());
  EXPECT_FALSE(a.Mbr().Intersects(b.Mbr()));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SplitPolicyTest,
                         testing::Values(SplitPolicy::kLinear,
                                         SplitPolicy::kQuadratic,
                                         SplitPolicy::kRStar),
                         [](const testing::TestParamInfo<SplitPolicy>& info) {
                           return SplitPolicyName(info.param);
                         });

TEST(SplitPolicyNameTest, Names) {
  EXPECT_STREQ(SplitPolicyName(SplitPolicy::kLinear), "linear");
  EXPECT_STREQ(SplitPolicyName(SplitPolicy::kQuadratic), "quadratic");
  EXPECT_STREQ(SplitPolicyName(SplitPolicy::kRStar), "rstar");
}

}  // namespace
}  // namespace warpindex
