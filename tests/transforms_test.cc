#include "sequence/transforms.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/prng.h"
#include "dtw/dtw.h"

namespace warpindex {
namespace {

constexpr double kMax = std::numeric_limits<double>::max();

// The transform's result; fails the test if it returned an error.
template <typename F>
Sequence Ok(F transform) {
  Sequence out;
  const Status status = transform(&out);
  EXPECT_TRUE(status.ok()) << status;
  return out;
}

// Expects InvalidArgument and an untouched output.
template <typename F>
void ExpectRefused(F transform, const std::string& what) {
  Sequence out({42.0});
  const Status status = transform(&out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(status.message().find(what), std::string::npos) << status;
  EXPECT_EQ(out, Sequence({42.0})) << what;
}

TEST(TransformsTest, ShiftAddsOffset) {
  const Sequence out =
      Ok([](Sequence* o) { return Shift(Sequence({1.0, 2.0}), 10.0, o); });
  EXPECT_EQ(out, Sequence({11.0, 12.0}));
}

TEST(TransformsTest, ScaleMultiplies) {
  const Sequence out =
      Ok([](Sequence* o) { return Scale(Sequence({1.0, -2.0}), 3.0, o); });
  EXPECT_EQ(out, Sequence({3.0, -6.0}));
}

// Finite input whose result overflows is refused, not returned with
// infinite elements (release builds compile Sequence's own check out).
TEST(TransformsTest, OverflowingResultsAreRefused) {
  ExpectRefused(
      [](Sequence* o) { return Scale(Sequence({1e300, -1e300}), 1e10, o); },
      "Scale: element 0");
  ExpectRefused(
      [](Sequence* o) { return Shift(Sequence({kMax}), 1e300, o); },
      "Shift: element 0");
  ExpectRefused(
      [](Sequence* o) { return Shift(Sequence({1.0, -kMax}), -1e300, o); },
      "Shift: element 1");
  ExpectRefused(
      [](Sequence* o) { return Difference(Sequence({-kMax, kMax}), o); },
      "Difference: element 0");
  ExpectRefused(
      [](Sequence* o) {
        return MovingAverage(Sequence({kMax, kMax, 1.0}), 2, o);
      },
      "MovingAverage");
  ExpectRefused(
      [](Sequence* o) { return MinMaxNormalize(Sequence({kMax, -kMax}), o); },
      "MinMaxNormalize");
  // The variance overflows: the result would be all zeros, not an error.
  ExpectRefused(
      [](Sequence* o) { return ZNormalize(Sequence({1e300, -1e300}), o); },
      "ZNormalize: mean or standard deviation overflows");
}

// The largest finite results still pass.
TEST(TransformsTest, ResultsAtTheEdgeOfTheRangeAreKept) {
  EXPECT_EQ(Ok([](Sequence* o) { return Shift(Sequence({kMax}), 0.0, o); }),
            Sequence({kMax}));
  EXPECT_EQ(Ok([](Sequence* o) { return Scale(Sequence({kMax}), -1.0, o); }),
            Sequence({-kMax}));
  EXPECT_EQ(
      Ok([](Sequence* o) { return Difference(Sequence({0.0, kMax}), o); }),
      Sequence({kMax}));
}

TEST(TransformsTest, PreconditionsAreInvalidArgument) {
  ExpectRefused([](Sequence* o) { return ZNormalize(Sequence(), o); },
                "ZNormalize: empty");
  ExpectRefused([](Sequence* o) { return MinMaxNormalize(Sequence(), o); },
                "MinMaxNormalize: empty");
  ExpectRefused(
      [](Sequence* o) { return MovingAverage(Sequence({1.0, 2.0}), 0, o); },
      "MovingAverage: window 0");
  ExpectRefused(
      [](Sequence* o) { return MovingAverage(Sequence({1.0, 2.0}), 3, o); },
      "MovingAverage: window 3");
  ExpectRefused([](Sequence* o) { return Difference(Sequence({1.0}), o); },
                "Difference: needs");
}

TEST(TransformsTest, ZNormalizeHasZeroMeanUnitStd) {
  const Sequence out = Ok([](Sequence* o) {
    return ZNormalize(Sequence({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), o);
  });
  EXPECT_NEAR(out.Mean(), 0.0, 1e-12);
  EXPECT_NEAR(out.StdDev(), 1.0, 1e-12);
}

TEST(TransformsTest, ZNormalizeConstantSequence) {
  const Sequence out =
      Ok([](Sequence* o) { return ZNormalize(Sequence({5.0, 5.0, 5.0}), o); });
  EXPECT_EQ(out, Sequence({0.0, 0.0, 0.0}));
}

TEST(TransformsTest, ZNormalizeRemovesShiftAndScale) {
  Prng prng(3);
  Sequence s;
  for (int i = 0; i < 50; ++i) {
    s.Append(prng.UniformDouble(-5.0, 5.0));
  }
  const Sequence scaled = Ok([&](Sequence* o) { return Scale(s, 3.0, o); });
  const Sequence transformed =
      Ok([&](Sequence* o) { return Shift(scaled, -7.0, o); });
  const Sequence a = Ok([&](Sequence* o) { return ZNormalize(s, o); });
  const Sequence b =
      Ok([&](Sequence* o) { return ZNormalize(transformed, o); });
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(TransformsTest, MinMaxNormalizeRangeAndEndpoints) {
  const Sequence out = Ok([](Sequence* o) {
    return MinMaxNormalize(Sequence({10.0, 20.0, 15.0}), o);
  });
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(TransformsTest, MinMaxNormalizeConstantSequence) {
  EXPECT_EQ(Ok([](Sequence* o) {
              return MinMaxNormalize(Sequence({3.0, 3.0}), o);
            }),
            Sequence({0.0, 0.0}));
}

TEST(TransformsTest, MovingAverageKnownValues) {
  const Sequence out = Ok([](Sequence* o) {
    return MovingAverage(Sequence({1.0, 2.0, 3.0, 4.0}), 2, o);
  });
  EXPECT_EQ(out, Sequence({1.5, 2.5, 3.5}));
}

TEST(TransformsTest, MovingAverageWindowOneIsIdentity) {
  const Sequence s({1.0, 5.0, 2.0});
  EXPECT_EQ(Ok([&](Sequence* o) { return MovingAverage(s, 1, o); }), s);
}

TEST(TransformsTest, MovingAverageFullWindow) {
  const Sequence out = Ok([](Sequence* o) {
    return MovingAverage(Sequence({2.0, 4.0, 6.0}), 3, o);
  });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 4.0);
}

TEST(TransformsTest, MovingAverageSmoothsNoise) {
  Prng prng(4);
  Sequence s;
  for (int i = 0; i < 200; ++i) {
    s.Append(prng.UniformDouble(-1.0, 1.0));
  }
  const Sequence smoothed =
      Ok([&](Sequence* o) { return MovingAverage(s, 20, o); });
  EXPECT_LT(smoothed.StdDev(), s.StdDev() / 2.0);
}

TEST(TransformsTest, DifferenceKnownValues) {
  const Sequence out = Ok(
      [](Sequence* o) { return Difference(Sequence({1.0, 4.0, 2.0}), o); });
  EXPECT_EQ(out, Sequence({3.0, -2.0}));
}

TEST(TransformsTest, DifferenceRemovesShift) {
  const Sequence s({1.0, 4.0, 2.0, 8.0});
  const Sequence shifted = Ok([&](Sequence* o) { return Shift(s, 100.0, o); });
  EXPECT_EQ(Ok([&](Sequence* o) { return Difference(s, o); }),
            Ok([&](Sequence* o) { return Difference(shifted, o); }));
}

TEST(TransformsTest, NormalizationPreservesWarpingStructure) {
  // Pipeline check: if S warps to zero distance from Q, the z-normalized
  // pair does too (normalization is element-wise monotone-affine with the
  // same parameters only when the sequences share stats — use a warped
  // copy, which has identical element multiset up to repetition counts...
  // so just verify distances stay small for a shifted/scaled warped copy
  // after normalization).
  const Sequence s({1.0, 2.0, 3.0, 2.0, 1.0});
  const Sequence warped({1.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0});
  const Sequence scaled =
      Ok([&](Sequence* o) { return Scale(warped, 2.5, o); });
  const Sequence disguised =
      Ok([&](Sequence* o) { return Shift(scaled, -4.0, o); });
  const Dtw dtw(DtwOptions::Linf());
  // Raw distance is large; normalized distance is small.
  EXPECT_GT(dtw.Distance(s, disguised).distance, 1.0);
  // Not exactly zero: warping repeats elements, which shifts the mean/std
  // the normalization divides by. But the disguise is gone.
  const Sequence a = Ok([&](Sequence* o) { return ZNormalize(s, o); });
  const Sequence b = Ok([&](Sequence* o) { return ZNormalize(disguised, o); });
  EXPECT_LT(dtw.Distance(a, b).distance, 0.3);
}

}  // namespace
}  // namespace warpindex
