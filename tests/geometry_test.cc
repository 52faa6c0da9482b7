#include "rtree/geometry.h"

#include <gtest/gtest.h>

namespace warpindex {
namespace {

TEST(PointTest, MakeAndIndex) {
  const Point p = Point::Make({1.0, 2.0, 3.0});
  EXPECT_EQ(p.dims, 3);
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(p[2], 3.0);
}

TEST(PointTest, FromArray) {
  const double values[] = {4.0, 5.0};
  const Point p = Point::FromArray(values, 2);
  EXPECT_EQ(p.dims, 2);
  EXPECT_EQ(p[1], 5.0);
}

TEST(RectTest, FromPointIsDegenerate) {
  const Rect r = Rect::FromPoint(Point::Make({1.0, 2.0}));
  EXPECT_TRUE(r.IsValid());
  EXPECT_EQ(r.Area(), 0.0);
  EXPECT_TRUE(r.ContainsPoint(Point::Make({1.0, 2.0})));
}

TEST(RectTest, SquareAroundIsThePaperRangeQuery) {
  const Rect r = Rect::SquareAround(Point::Make({0.0, 10.0}), 0.5);
  EXPECT_EQ(r.min(0), -0.5);
  EXPECT_EQ(r.max(0), 0.5);
  EXPECT_EQ(r.min(1), 9.5);
  EXPECT_EQ(r.max(1), 10.5);
}

TEST(RectTest, AreaAndMargin) {
  const Rect r = Rect::Make({0.0, 0.0}, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(r.Area(), 6.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 5.0);
}

TEST(RectTest, IntersectionCases) {
  const Rect a = Rect::Make({0.0, 0.0}, {2.0, 2.0});
  EXPECT_TRUE(a.Intersects(Rect::Make({1.0, 1.0}, {3.0, 3.0})));
  EXPECT_TRUE(a.Intersects(Rect::Make({2.0, 2.0}, {3.0, 3.0})));  // touch
  EXPECT_FALSE(a.Intersects(Rect::Make({2.1, 0.0}, {3.0, 1.0})));
  EXPECT_FALSE(a.Intersects(Rect::Make({0.0, -2.0}, {2.0, -0.1})));
}

TEST(RectTest, ContainsCases) {
  const Rect a = Rect::Make({0.0, 0.0}, {4.0, 4.0});
  EXPECT_TRUE(a.Contains(Rect::Make({1.0, 1.0}, {2.0, 2.0})));
  EXPECT_TRUE(a.Contains(a));
  EXPECT_FALSE(a.Contains(Rect::Make({1.0, 1.0}, {5.0, 2.0})));
}

TEST(RectTest, UnionAndEnlargement) {
  const Rect a = Rect::Make({0.0, 0.0}, {1.0, 1.0});
  const Rect b = Rect::Make({2.0, 2.0}, {3.0, 3.0});
  const Rect u = a.UnionWith(b);
  EXPECT_EQ(u.min(0), 0.0);
  EXPECT_EQ(u.max(1), 3.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 9.0 - 1.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(a), 0.0);
}

TEST(RectTest, OverlapArea) {
  const Rect a = Rect::Make({0.0, 0.0}, {2.0, 2.0});
  EXPECT_DOUBLE_EQ(a.OverlapArea(Rect::Make({1.0, 1.0}, {3.0, 3.0})), 1.0);
  EXPECT_DOUBLE_EQ(a.OverlapArea(Rect::Make({5.0, 5.0}, {6.0, 6.0})), 0.0);
  EXPECT_DOUBLE_EQ(a.OverlapArea(a), 4.0);
}

TEST(RectTest, MinDistSquared) {
  const Rect r = Rect::Make({0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(r.MinDistSquared(Point::Make({0.5, 0.5})), 0.0);
  EXPECT_DOUBLE_EQ(r.MinDistSquared(Point::Make({2.0, 0.5})), 1.0);
  EXPECT_DOUBLE_EQ(r.MinDistSquared(Point::Make({2.0, 3.0})), 1.0 + 4.0);
}

TEST(RectTest, MinDistLinf) {
  const Rect r = Rect::Make({0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(r.MinDistLinf(Point::Make({0.5, 0.5})), 0.0);
  EXPECT_DOUBLE_EQ(r.MinDistLinf(Point::Make({3.0, 0.5})), 2.0);
  // Max over axes, not sum.
  EXPECT_DOUBLE_EQ(r.MinDistLinf(Point::Make({3.0, 4.0})), 3.0);
}

TEST(RectTest, MinDistLinfLowerBoundsPointDistances) {
  const Rect r = Rect::Make({1.0, 2.0, 3.0}, {2.0, 4.0, 5.0});
  const Point p = Point::Make({0.0, 5.0, 4.0});
  const double bound = r.MinDistLinf(p);
  // Check several points inside the rect.
  for (double a : {1.0, 1.5, 2.0}) {
    for (double b : {2.0, 3.0, 4.0}) {
      for (double c : {3.0, 4.0, 5.0}) {
        const double linf =
            std::max({std::abs(p[0] - a), std::abs(p[1] - b),
                      std::abs(p[2] - c)});
        EXPECT_GE(linf, bound);
      }
    }
  }
}

TEST(RectTest, ValidityChecks) {
  Rect r = Rect::Make({0.0}, {1.0});
  EXPECT_TRUE(r.IsValid());
  r.Set(0, 2.0, 1.0);
  EXPECT_FALSE(r.IsValid());
  Rect no_dims;
  EXPECT_FALSE(no_dims.IsValid());
}

TEST(RectTest, EqualityRespectsDims) {
  const Rect a = Rect::Make({0.0, 0.0}, {1.0, 1.0});
  const Rect b = Rect::Make({0.0, 0.0}, {1.0, 1.0});
  const Rect c = Rect::Make({0.0}, {1.0});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(RectTest, FourDimensionalFeatureSpace) {
  // The paper's actual usage: 4-d points and square ranges.
  const Point f = Point::Make({10.0, 12.0, 15.0, 9.0});
  const Rect range = Rect::SquareAround(f, 1.0);
  EXPECT_TRUE(range.ContainsPoint(Point::Make({10.5, 11.5, 15.9, 8.1})));
  EXPECT_FALSE(range.ContainsPoint(Point::Make({10.5, 11.5, 16.1, 9.0})));
}

}  // namespace
}  // namespace warpindex
