// Differential tests for the rolling DTW kernel and the L_inf decision
// pre-pass (dtw/dtw.cc) against DistanceWithPath, the full-matrix
// reference: bit-identical distances for every (step, combiner), band,
// shape and threshold, pinned outputs for infinite step costs, the cell
// accounting, and the SSE2 and rank-table mask builders against the
// portable one (the rank table also on columns that defeat its buckets).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "dtw/allowed_mask.h"
#include "dtw/dtw.h"

namespace warpindex {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Finite elements whose step costs overflow: |kMax - (-kMax)| is +inf
// under both steps, and kBig's square is +inf under kSquared.
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kBig = 1e200;

// Bitwise equality, so 0.0 vs -0.0 count as different.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The four (step, combiner) pairs, plus take_sqrt on both squared ones.
std::vector<DtwOptions> KernelOptions() {
  return {
      {DtwCombiner::kSum, StepCost::kAbsolute, -1, false},
      {DtwCombiner::kMax, StepCost::kAbsolute, -1, false},
      {DtwCombiner::kSum, StepCost::kSquared, -1, false},
      {DtwCombiner::kMax, StepCost::kSquared, -1, false},
      {DtwCombiner::kSum, StepCost::kSquared, -1, true},
      {DtwCombiner::kMax, StepCost::kSquared, -1, true},
  };
}

Sequence RandomWalk(Prng* prng, size_t n) {
  std::vector<double> v(n);
  double x = prng->UniformDouble(-1.0, 1.0);
  for (double& e : v) {
    e = x;
    x += prng->UniformDouble(-0.5, 0.5);
  }
  return Sequence(std::move(v));
}

// A noisy resampling of `s` to length m: close to s under time warping,
// so reachable paths wind through the matrix instead of dying at once.
Sequence NoisyResample(Prng* prng, const Sequence& s, size_t m) {
  std::vector<double> v(m);
  for (size_t j = 0; j < m; ++j) {
    v[j] = s[j * s.size() / m] + prng->UniformDouble(-0.3, 0.3);
  }
  return Sequence(std::move(v));
}

// Distance(s, q) must equal the reference bit for bit, and
// DistanceWithThreshold(s, q, t) must equal it when it is within t and
// +inf otherwise. take_sqrt decides in the squared domain (accumulated
// value <= t * t), so its test uses the unrooted reference distance.
void CheckPair(const Dtw& dtw, const Sequence& s, const Sequence& q,
               DtwScratch* scratch) {
  const double ref = dtw.DistanceWithPath(s, q).distance;
  ASSERT_TRUE(std::isfinite(ref));
  const std::string where = "n=" + std::to_string(s.size()) +
                            " m=" + std::to_string(q.size()) +
                            " band=" + std::to_string(dtw.options().band);
  EXPECT_TRUE(SameBits(dtw.Distance(s, q, scratch).distance, ref)) << where;
  DtwOptions unrooted = dtw.options();
  unrooted.take_sqrt = false;
  const double accumulated = dtw.options().take_sqrt
                                 ? Dtw(unrooted).DistanceWithPath(s, q).distance
                                 : ref;
  for (const double t : {ref, std::nextafter(ref, -kInf), 0.0, kInf}) {
    if (t < 0.0) {
      continue;  // nextafter below a zero distance
    }
    const bool within = dtw.options().take_sqrt ? accumulated <= t * t
                                                : ref <= t;
    const double expected = within ? ref : kInf;
    const double got = dtw.DistanceWithThreshold(s, q, t, scratch).distance;
    EXPECT_TRUE(SameBits(got, expected))
        << where << " t=" << t << " got=" << got << " expected=" << expected;
  }
}

// Reference for the pre-pass's path windows: per row of `s` (the
// kernel's rows under the pre-pass, which keeps the query `q` on the
// columns), the first and last column of the cells that lie on a path of
// allowed cells (step cost <= t) from (0, 0) to the final cell, found by
// plain boolean DP forward and then backward. Empty when no such path
// exists.
std::vector<std::pair<size_t, size_t>> ReferencePathWindows(
    const Sequence& s, const Sequence& q, StepCost step, double t) {
  const size_t n = s.size();
  const size_t m = q.size();
  std::vector<std::vector<bool>> on(n, std::vector<bool>(m, false));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const bool entered = (i == 0 && j == 0) || (i > 0 && on[i - 1][j]) ||
                           (i > 0 && j > 0 && on[i - 1][j - 1]) ||
                           (j > 0 && on[i][j - 1]);
      on[i][j] = entered && ElementCost(s[i], q[j], step) <= t;
    }
  }
  if (!on[n - 1][m - 1]) {
    return {};
  }
  std::vector<std::pair<size_t, size_t>> windows(n);
  for (size_t i = n; i-- > 0;) {
    size_t first = m;
    size_t last = 0;
    for (size_t j = m; j-- > 0;) {
      const bool leaves = (i == n - 1 && j == m - 1) ||
                          (i + 1 < n && on[i + 1][j]) ||
                          (i + 1 < n && j + 1 < m && on[i + 1][j + 1]) ||
                          (j + 1 < m && on[i][j + 1]);
      on[i][j] = on[i][j] && leaves;
      if (on[i][j]) {
        first = j;
        last = std::max(last, j);
      }
    }
    windows[i] = {first, last};
  }
  return windows;
}

// The windowed DP's cell count: the cells of the reference windows, 0
// when no path exists. The count does not depend on which sequence is on
// the rows: the row spans and the column spans of the cells on such paths
// cover the same cells.
uint64_t PathWindowCells(const Sequence& s, const Sequence& q, StepCost step,
                         double t) {
  uint64_t cells = 0;
  for (const auto& [first, last] : ReferencePathWindows(s, q, step, t)) {
    cells += last - first + 1;
  }
  return cells;
}

// One scratch across every shape, so stale rows and bits from a larger
// evaluation would show.
TEST(DtwKernelTest, MatchesPathReferenceOverShapesBandsAndThresholds) {
  const size_t lengths[] = {1, 63, 64, 65, 127, 128, 129};
  Prng prng(2024);
  DtwScratch scratch;
  for (DtwOptions options : KernelOptions()) {
    for (const int band : {-1, 0, 1, 5, 200}) {
      options.band = band;
      const Dtw dtw(options);
      for (const size_t n : lengths) {
        for (const size_t m : lengths) {
          const Sequence s = RandomWalk(&prng, n);
          CheckPair(dtw, s, NoisyResample(&prng, s, m), &scratch);
          if (n == m) {
            CheckPair(dtw, s, s, &scratch);  // distance 0: t = 0 accepts
          }
        }
      }
    }
  }
}

// More than 4096 columns: the pre-pass's shift and add carries cross 64
// word boundaries.
TEST(DtwKernelTest, MatchesPathReferenceBeyond4096Columns) {
  Prng prng(4097);
  const Sequence s = RandomWalk(&prng, 4100);
  const Sequence q = NoisyResample(&prng, s, 4097);
  DtwScratch scratch;
  for (const DtwOptions& options : {DtwOptions::Linf(), DtwOptions::L1()}) {
    CheckPair(Dtw(options), s, q, &scratch);
  }
}

// The windowed DP behind an accepting pre-pass, against the reference:
// random unbanded L_inf pairs (both step costs; n != m, n = 1, m = 1) at
// thresholds at D, at the next double above D, at 1.25 D and 4 D (ever
// wider windows) and at 0. DistanceWithThreshold must be bit-identical to
// ref <= t ? ref : +inf, and an accepted pair counts its n * m pre-pass
// cells plus its path-window cells. One scratch throughout, so stale
// tails left by wider windows and longer rows would show.
TEST(DtwKernelTest, WindowedDpMatchesPathReference) {
  const size_t lengths[] = {1, 2, 17, 64, 65, 130};
  Prng prng(1616);
  DtwScratch scratch;
  for (const StepCost step : {StepCost::kAbsolute, StepCost::kSquared}) {
    const Dtw dtw(DtwOptions{DtwCombiner::kMax, step, -1, false});
    for (const size_t n : lengths) {
      for (const size_t m : lengths) {
        for (int trial = 0; trial < 3; ++trial) {
          const Sequence s = RandomWalk(&prng, n);
          const Sequence q = NoisyResample(&prng, s, m);
          const double ref = dtw.DistanceWithPath(s, q).distance;
          ASSERT_TRUE(std::isfinite(ref));
          for (const double t : {ref, std::nextafter(ref, kInf), 1.25 * ref,
                                 4.0 * ref, 0.0}) {
            const DtwResult r = dtw.DistanceWithThreshold(s, q, t, &scratch);
            const std::string where = "n=" + std::to_string(n) +
                                      " m=" + std::to_string(m) +
                                      " t=" + std::to_string(t);
            EXPECT_TRUE(SameBits(r.distance, ref <= t ? ref : kInf))
                << where << " got=" << r.distance << " ref=" << ref;
            if (ref <= t) {
              EXPECT_EQ(r.cells, n * m + PathWindowCells(s, q, step, t))
                  << where;
            }
          }
        }
      }
    }
  }
}

// Infinite step costs on the pre-pass path. Elements are finite (the
// Sequence input contract), but the cost of two finite elements can still
// overflow to +inf: |DBL_MAX - (-DBL_MAX)|, or (1e200 - x)^2 under the
// squared step. Such cells never lie on a path costing <= t, so they fall
// outside or inside the windows as the other cells dictate, and a final
// cell of infinite cost leaves the pair unmatched. Every thresholded
// result must be bit-identical to the DP alone (the same options with a
// band wide enough to constrain nothing, which skips the pre-pass) and to
// ref <= t ? ref : +inf.
TEST(DtwKernelTest, WindowedDpMatchesPlainDpOnInfiniteCosts) {
  const double specials[] = {kMax, -kMax, kBig, -kBig};
  Prng prng(77);
  DtwScratch scratch;
  for (const StepCost step : {StepCost::kAbsolute, StepCost::kSquared}) {
    const DtwOptions options{DtwCombiner::kMax, step, -1, false};
    const Dtw dtw(options);
    for (int trial = 0; trial < 400; ++trial) {
      const size_t n = static_cast<size_t>(prng.UniformInt(1, 40));
      const size_t m = static_cast<size_t>(prng.UniformInt(1, 40));
      const Sequence base = RandomWalk(&prng, n);
      std::vector<double> s(base.data(), base.data() + n);
      const Sequence resampled = NoisyResample(&prng, base, m);
      std::vector<double> q(resampled.data(), resampled.data() + m);
      for (int k = prng.UniformInt(0, 2); k > 0; --k) {
        std::vector<double>& v = prng.UniformInt(0, 1) == 0 ? s : q;
        v[static_cast<size_t>(
            prng.UniformInt(0, static_cast<int64_t>(v.size()) - 1))] =
            specials[prng.UniformInt(0, 3)];
      }
      if (trial % 4 == 0) {
        // A final cell of infinite cost under both steps.
        s.back() = kMax;
        q.back() = -kMax;
      }
      const Sequence a(std::move(s));
      const Sequence b(std::move(q));
      DtwOptions wide = options;
      wide.band = static_cast<int>(std::max(n, m));
      const Dtw plain(wide);
      const double ref = dtw.DistanceWithPath(a, b).distance;
      for (const double t : {0.0, 0.1, 0.5, 1.0, 2.0, 8.0, kMax}) {
        const double got = dtw.DistanceWithThreshold(a, b, t, &scratch)
                               .distance;
        const double want = plain.DistanceWithThreshold(a, b, t).distance;
        const std::string where = "trial=" + std::to_string(trial) +
                                  " t=" + std::to_string(t);
        EXPECT_TRUE(SameBits(got, want))
            << where << " got=" << got << " plain=" << want;
        EXPECT_TRUE(SameBits(got, ref <= t ? ref : kInf))
            << where << " got=" << got << " ref=" << ref;
      }
    }
  }
}

// Pinned outputs of the DP alone (distance and cells) for finite inputs
// whose step costs reach DBL_MAX or overflow to +inf, at thresholds up
// to DBL_MAX. With the pre-pass in front, every distance must stay bit
// for bit the same, and the cells may only grow by the pre-pass rows of
// pairs it hands to the DP. The pre-pass keeps the second sequence (the
// query) on the columns, so option 0's pairs whose first sequence is the
// shorter one (2, 3, 8 and 9) pin its rejections' rows of |b| cells
// instead of the DP's rows over the shorter sequence.
struct Golden {
  int pair;
  int option;
  double distance[4];  // per threshold
  uint64_t cells[4];
};

TEST(DtwKernelTest, InfiniteCostsReproducePinnedOutputs) {
  const std::vector<Sequence> inputs = {
      Sequence({0.5, 1.5, 2.5, 3.5}),         // 0 moderate
      Sequence({1.0, kMax, 2.0, 3.0}),        // 1 DBL_MAX inside
      Sequence({1.0, 2.0, 3.0, kMax}),        // 2 DBL_MAX last
      Sequence({-kMax, 0.0, 1.0}),            // 3 -DBL_MAX first
      Sequence({kBig, 1.0, 2.0}),             // 4 1e200 first
      Sequence({1.0, -kBig, 2.0, 2.0, 3.0}),  // 5 -1e200 inside
      Sequence({1.0, 2.0, -kMax}),            // 6 -DBL_MAX last
      Sequence({kMax}),                       // 7 single DBL_MAX
      Sequence({kMax, kMax}),                 // 8
      Sequence({1.0, -kMax}),                 // 9
  };
  // {2, 6} ends on a cell of cost +inf, {7, 3} and {8, 9} hold no path of
  // finite cost, and {6, 6} pairs -DBL_MAX with itself (cost 0).
  const int pairs[][2] = {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0},
                          {2, 6}, {6, 6}, {7, 3}, {1, 5}, {0, 0}, {8, 9}};
  DtwOptions banded = DtwOptions::Linf();
  banded.band = 1;
  const DtwOptions options[] = {DtwOptions::Linf(), banded, DtwOptions::L1(),
                                DtwOptions::L2()};
  // Index 0 is Distance(); the others go to DistanceWithThreshold.
  const double thresholds[] = {kInf, 0.5, 2.5, kMax};
  const Golden golden[] = {
      {0, 0, {kMax, kInf, kInf, kMax}, {16, 8, 8, 16}},
      {0, 1, {kMax, kInf, kInf, kMax}, {10, 5, 5, 10}},
      {0, 2, {kMax, kInf, kInf, kMax}, {16, 8, 8, 16}},
      {0, 3, {kInf, kInf, kInf, kInf}, {16, 8, 8, 16}},
      {1, 0, {kMax, kInf, kInf, kMax}, {16, 16, 16, 16}},
      {1, 1, {kMax, kInf, kInf, kMax}, {10, 10, 10, 10}},
      {1, 2, {kMax, kInf, kInf, kMax}, {16, 8, 16, 16}},
      {1, 3, {kInf, kInf, kInf, kInf}, {16, 8, 16, 16}},
      {2, 0, {kMax, kInf, kInf, kMax}, {12, 4, 4, 12}},
      {2, 1, {kMax, kInf, kInf, kMax}, {8, 2, 2, 8}},
      {2, 2, {kMax, kInf, kInf, kMax}, {12, 3, 3, 12}},
      {2, 3, {kInf, kInf, kInf, kInf}, {12, 3, 3, 12}},
      {3, 0, {kBig, kInf, kInf, kBig}, {12, 4, 4, 12}},
      {3, 1, {kBig, kInf, kInf, kBig}, {8, 2, 2, 8}},
      {3, 2, {kBig, kInf, kInf, kBig}, {12, 3, 3, 12}},
      {3, 3, {kInf, kInf, kInf, kInf}, {12, 3, 3, 12}},
      {4, 0, {kBig, kInf, kInf, kBig}, {20, 8, 8, 20}},
      {4, 1, {kBig, kInf, kInf, kBig}, {11, 5, 5, 11}},
      {4, 2, {kBig, kInf, kInf, kBig}, {20, 8, 8, 20}},
      {4, 3, {kInf, kInf, kInf, kInf}, {20, 8, 8, 20}},
      {5, 0, {kMax, kInf, kInf, kMax}, {12, 12, 12, 12}},
      {5, 1, {kMax, kInf, kInf, kMax}, {8, 8, 8, 8}},
      {5, 2, {kMax, kInf, kInf, kMax}, {12, 6, 12, 12}},
      {5, 3, {kInf, kInf, kInf, kInf}, {12, 6, 12, 12}},
      {6, 0, {kInf, kInf, kInf, kInf}, {12, 9, 12, 12}},
      {6, 1, {kInf, kInf, kInf, kInf}, {8, 7, 8, 8}},
      {6, 2, {kInf, kInf, kInf, kInf}, {12, 9, 12, 12}},
      {6, 3, {kInf, kInf, kInf, kInf}, {12, 9, 12, 12}},
      {7, 0, {0, 0, 0, 0}, {9, 9, 9, 9}},
      {7, 1, {0, 0, 0, 0}, {7, 7, 7, 7}},
      {7, 2, {0, 0, 0, 0}, {9, 9, 9, 9}},
      {7, 3, {0, 0, 0, 0}, {9, 9, 9, 9}},
      {8, 0, {kInf, kInf, kInf, kInf}, {3, 3, 3, 3}},
      {8, 1, {kInf, kInf, kInf, kInf}, {3, 1, 1, 1}},
      {8, 2, {kInf, kInf, kInf, kInf}, {3, 1, 1, 1}},
      {8, 3, {kInf, kInf, kInf, kInf}, {3, 1, 1, 3}},
      {9, 0, {kMax, kInf, kInf, kMax}, {20, 10, 10, 20}},
      {9, 1, {kMax, kInf, kInf, kMax}, {11, 5, 5, 11}},
      {9, 2, {kMax, kInf, kInf, kMax}, {20, 8, 8, 20}},
      {9, 3, {kInf, kInf, kInf, kInf}, {20, 8, 8, 20}},
      {10, 0, {0, 0, 0, 0}, {16, 16, 16, 16}},
      {10, 1, {0, 0, 0, 0}, {10, 10, 10, 10}},
      {10, 2, {0, 0, 0, 0}, {16, 16, 16, 16}},
      {10, 3, {0, 0, 0, 0}, {16, 16, 16, 16}},
      {11, 0, {kInf, kInf, kInf, kInf}, {4, 2, 2, 4}},
      {11, 1, {kInf, kInf, kInf, kInf}, {4, 2, 2, 4}},
      {11, 2, {kInf, kInf, kInf, kInf}, {4, 2, 2, 4}},
      {11, 3, {kInf, kInf, kInf, kInf}, {4, 2, 2, 4}},
  };
  DtwScratch scratch;
  for (const Golden& g : golden) {
    const Sequence& a = inputs[pairs[g.pair][0]];
    const Sequence& b = inputs[pairs[g.pair][1]];
    const Dtw dtw(options[g.option]);
    for (int k = 0; k < 4; ++k) {
      const double t = thresholds[k];
      const DtwResult r = k == 0
                              ? dtw.Distance(a, b, &scratch)
                              : dtw.DistanceWithThreshold(a, b, t, &scratch);
      const std::string where = "pair=" + std::to_string(g.pair) +
                                " option=" + std::to_string(g.option) +
                                " threshold=" + std::to_string(k);
      EXPECT_TRUE(SameBits(r.distance, g.distance[k]))
          << where << " got " << r.distance;
      // Only unbanded L_inf with a finite threshold runs the pre-pass. A
      // pair it rejects counts the DP's pinned cells; a pair it passes
      // counts its n * m cells plus the path-window cells.
      const uint64_t nm = a.size() * b.size();
      const bool prepass = g.option == 0 && std::isfinite(t);
      const uint64_t expected_cells =
          prepass && g.distance[k] <= t
              ? nm + PathWindowCells(a, b, StepCost::kAbsolute, t)
              : g.cells[k];
      EXPECT_EQ(r.cells, expected_cells) << where;
    }
  }
}

// Inputs with exactly representable elements, so the pinned cell counts
// below do not depend on the math library.
Sequence Saw(size_t n, size_t offset, size_t stride) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>((i * stride + offset) % 13) * 0.5;
  }
  return Sequence(std::move(v));
}

TEST(DtwKernelTest, BandedAndSumCombinedCellsAreUnchanged) {
  const Sequence a = Saw(200, 0, 7);
  const Sequence b = Saw(180, 5, 7);
  DtwOptions banded = DtwOptions::Linf();
  banded.band = 10;
  const Dtw banded_dtw(banded);
  const DtwResult early = banded_dtw.DistanceWithThreshold(a, b, 0.5);
  EXPECT_TRUE(std::isinf(early.distance));
  EXPECT_EQ(early.cells, 21u);
  const DtwResult match = banded_dtw.DistanceWithThreshold(a, b, 6.0);
  EXPECT_EQ(match.distance, 4.0);
  EXPECT_EQ(match.cells, 7170u);
  const DtwResult l1 = Dtw(DtwOptions::L1()).DistanceWithThreshold(a, b, 30.0);
  EXPECT_TRUE(std::isinf(l1.distance));
  EXPECT_EQ(l1.cells, 35280u);
}

TEST(DtwKernelTest, RejectedLinfPairCountsRowsUpToTheAbandon) {
  const Sequence a = Saw(200, 0, 7);
  const Sequence c = Saw(190, 3, 5);
  const DtwResult r = Dtw().DistanceWithThreshold(a, c, 1.5);
  EXPECT_TRUE(std::isinf(r.distance));
  EXPECT_EQ(r.cells, 16u * 190u);  // the DP abandons after row 15
}

TEST(DtwKernelTest, AcceptedLinfPairCountsPrePassRowsPlusDpCells) {
  const Sequence a = Saw(200, 0, 7);
  const Sequence b = Saw(180, 5, 7);
  const DtwResult r = Dtw().DistanceWithThreshold(a, b, 6.0);
  EXPECT_EQ(r.distance, 4.0);
  EXPECT_EQ(r.cells, 200u * 180u + 200u * 180u);
  // The DP alone (no finite threshold) counts its own cells only.
  EXPECT_EQ(Dtw().Distance(a, b).cells, 200u * 180u);
}

#if defined(__SSE2__)
TEST(DtwKernelTest, Sse2MaskWordsEqualPortableWords) {
  Prng prng(64);
  const double specials[] = {kMax, -kMax, kBig, -kBig, 0.0, -0.0};
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t count = static_cast<size_t>(prng.UniformInt(1, 64));
    std::vector<double> row(count);
    for (double& e : row) {
      e = prng.UniformInt(0, 19) == 0
              ? specials[prng.UniformInt(0, 5)]
              : prng.UniformDouble(-2.0, 2.0);
    }
    const double s_i = trial % 50 == 0 ? specials[trial / 50 % 6]
                                       : prng.UniformDouble(-2.0, 2.0);
    const double t = trial % 7 == 0 ? 0.0 : prng.UniformDouble(0.0, 1.5);
    EXPECT_EQ(AllowedWordSse2<StepCost::kAbsolute>(s_i, row.data(), count, t),
              AllowedWordPortable<StepCost::kAbsolute>(s_i, row.data(),
                                                       count, t));
    EXPECT_EQ(AllowedWordSse2<StepCost::kSquared>(s_i, row.data(), count, t),
              AllowedWordPortable<StepCost::kSquared>(s_i, row.data(), count,
                                                      t));
  }
}
#endif

// The rank table's row masks equal the per-column reference word for
// word: columns with duplicates, +-DBL_MAX, +-1e200 and +-0, rows s_i
// including those values, thresholds including 0, lengths across word
// edges.
TEST(DtwKernelTest, RankedMasksEqualPortableWords) {
  Prng prng(4242);
  const double specials[] = {kMax, -kMax, kBig, -kBig, 0.0, -0.0};
  ColumnRanks ranks;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t m = static_cast<size_t>(prng.UniformInt(1, 200));
    std::vector<double> q(m);
    for (double& e : q) {
      const int pick = prng.UniformInt(0, 9);
      e = pick == 0   ? specials[prng.UniformInt(0, 5)]
          : pick == 1 ? 0.25 * prng.UniformInt(-4, 4)  // duplicates
                      : prng.UniformDouble(-2.0, 2.0);
    }
    ranks.Assign(q.data(), m);
    for (int row = 0; row < 20; ++row) {
      const int pick = prng.UniformInt(0, 9);
      const double s_i = pick == 0   ? specials[prng.UniformInt(0, 5)]
                         : pick == 1 ? 0.25 * prng.UniformInt(-4, 4)
                                     : prng.UniformDouble(-2.0, 2.0);
      const double t = row % 5 == 0   ? 0.0
                       : row % 5 == 1 ? 0.25
                                      : prng.UniformDouble(0.0, 1.5);
      const uint64_t* lo = nullptr;
      const uint64_t* hi = nullptr;
      for (size_t w = 0; w * 64 < m; ++w) {
        const size_t count = std::min<size_t>(64, m - w * 64);
        ranks.Row<StepCost::kAbsolute>(s_i, t, &lo, &hi);
        EXPECT_EQ(hi[w] & ~lo[w],
                  AllowedWordPortable<StepCost::kAbsolute>(
                      s_i, q.data() + w * 64, count, t))
            << "m=" << m << " s_i=" << s_i << " t=" << t << " w=" << w;
        ranks.Row<StepCost::kSquared>(s_i, t, &lo, &hi);
        EXPECT_EQ(hi[w] & ~lo[w],
                  AllowedWordPortable<StepCost::kSquared>(
                      s_i, q.data() + w * 64, count, t))
            << "m=" << m << " s_i=" << s_i << " t=" << t << " w=" << w;
      }
    }
  }
}

// Column shapes that defeat ColumnRanks' buckets: a far outlier (+-1e6,
// +-DBL_MAX) and two on one side (which stretch the span, so the walk
// shares one bucket), all columns equal, every other column equal, and
// two clusters 1e4 apart, beside the plain walk.
std::vector<std::vector<double>> AdversarialColumns(Prng* prng, size_t m) {
  const Sequence walk = RandomWalk(prng, m);
  const std::vector<double> base(walk.data(), walk.data() + m);
  std::vector<std::vector<double>> shapes = {base};
  for (const double outlier : {1e6, -1e6, kMax, -kMax}) {
    std::vector<double> v = base;
    v[m / 2] = outlier;
    shapes.push_back(std::move(v));
  }
  std::vector<double> two = base;
  two[m / 4] = 1e6;
  two[m - 1] = 2e6;
  shapes.push_back(std::move(two));
  shapes.push_back(std::vector<double>(m, base[m / 3]));
  std::vector<double> half = base;
  for (size_t j = 0; j < m; j += 2) {
    half[j] = base[m / 3];
  }
  shapes.push_back(std::move(half));
  std::vector<double> clusters = base;
  for (size_t j = m / 2; j < m; ++j) {
    clusters[j] += 1e4;
  }
  shapes.push_back(std::move(clusters));
  return shapes;
}

// Rows s_i whose bounds s_i -+ r land on or beside the places a lookup
// can go wrong: at each column value (every column for short rows, a
// sample for long ones), at each bucket edge ColumnRanks' table draws for
// these columns (4 m buckets from the second smallest to the second
// largest value, or over all values when m <= 2) and at the nextafter
// neighbours of both, plus random rows.
std::vector<double> AdversarialRows(Prng* prng, const std::vector<double>& q,
                                    double r) {
  std::vector<double> points;
  const size_t m = q.size();
  const size_t stride = std::max<size_t>(1, m / 48);
  for (size_t j = 0; j < m; j += stride) {
    points.push_back(q[j]);
  }
  std::vector<double> sorted = q;
  std::sort(sorted.begin(), sorted.end());
  const size_t trim = m > 2 ? 1 : 0;
  const double low = sorted[trim];
  const size_t buckets = 4 * m;
  const double scale =
      static_cast<double>(buckets) / (sorted[m - 1 - trim] - low);
  if (std::isfinite(scale)) {
    for (size_t k = 0; k <= buckets; k += std::max<size_t>(1, buckets / 48)) {
      points.push_back(low + static_cast<double>(k) / scale);
    }
  }
  std::vector<double> rows;
  for (const double p : points) {
    for (const double x : {std::nextafter(p, -kInf), p,
                           std::nextafter(p, kInf)}) {
      rows.push_back(x + r);
      rows.push_back(x - r);
    }
  }
  for (int k = 0; k < 16; ++k) {
    rows.push_back(
        q[static_cast<size_t>(prng->UniformInt(0, static_cast<int64_t>(m) - 1))] +
        prng->UniformDouble(-2.0, 2.0));
  }
  // Rows so far out that s_i -+ r rounds far from where the predicates
  // cross (at t = DBL_MAX, s_i = DBL_MAX puts s_i - t at 0 while the lo
  // crossing sits near -1e292).
  for (const double special : {kMax, -kMax, kBig, -kBig}) {
    rows.push_back(special);
  }
  std::erase_if(rows, [](double x) { return !std::isfinite(x); });
  return rows;
}

// Every word of row s_i's ranked mask equals the per-column reference.
// Returns false (after one failure message) on the first mismatch.
template <StepCost kStep>
bool RankedRowMatches(const ColumnRanks& ranks, const std::vector<double>& q,
                      double s_i, double t) {
  const uint64_t* lo = nullptr;
  const uint64_t* hi = nullptr;
  ranks.Row<kStep>(s_i, t, &lo, &hi);
  for (size_t w = 0; w * 64 < q.size(); ++w) {
    const size_t count = std::min<size_t>(64, q.size() - w * 64);
    const uint64_t want =
        AllowedWordPortable<kStep>(s_i, q.data() + w * 64, count, t);
    if ((hi[w] & ~lo[w]) != want) {
      ADD_FAILURE() << "m=" << q.size() << " s_i=" << s_i << " t=" << t
                    << " w=" << w << " squared="
                    << (kStep == StepCost::kSquared);
      return false;
    }
  }
  return true;
}

TEST(DtwKernelTest, RankedMasksEqualPortableWordsOnAdversarialColumns) {
  Prng prng(2323);
  ColumnRanks ranks;
  for (const size_t m : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                         kMaxRankedColumns}) {
    for (const std::vector<double>& q : AdversarialColumns(&prng, m)) {
      ranks.Assign(q.data(), m);
      for (const double t : {0.0, 0.25, 1.0, 1e6, 3e6, kBig, kMax}) {
        for (const double s_i : AdversarialRows(&prng, q, t)) {
          ASSERT_TRUE(
              RankedRowMatches<StepCost::kAbsolute>(ranks, q, s_i, t));
        }
        // kSquared thresholds are squared costs; its bounds are s_i -+
        // sqrt(t).
        for (const double s_i : AdversarialRows(&prng, q, std::sqrt(t))) {
          ASSERT_TRUE(RankedRowMatches<StepCost::kSquared>(ranks, q, s_i, t));
        }
      }
    }
  }
}

// Pinned outputs of whole unbanded L_inf pairs (both step costs) whose
// columns carry a far outlier (1e6, DBL_MAX) or duplicates (every other
// column equal, all equal), at fixed thresholds and at D/2, just under D,
// D and 1.25 D. The distance bits and cells were recorded from the
// kernel before ColumnRanks looked rows up through buckets (a full-range
// search per bound); the lookup must not move either.
std::vector<Sequence> PinnedColumnShapes(const Sequence& near) {
  const size_t m = near.size();
  const std::vector<double> base(near.data(), near.data() + m);
  std::vector<Sequence> shapes;
  for (const double outlier : {1e6, kMax}) {
    std::vector<double> v = base;
    v[m / 2] = outlier;
    shapes.emplace_back(std::move(v));
  }
  std::vector<double> half = base;
  for (size_t j = 0; j < m; j += 2) {
    half[j] = base[0];
  }
  shapes.emplace_back(std::move(half));
  shapes.emplace_back(std::vector<double>(m, base[0]));
  return shapes;
}

TEST(DtwKernelTest, OutlierAndDuplicateColumnsReproducePinnedPairs) {
  struct Pinned {
    uint64_t distance_bits;
    uint64_t cells;
  };
  // Per step (kAbsolute, kSquared), per shape, per finite threshold.
  const Pinned pinned[] = {
      {0x7ff0000000000000u, 10560u},
      {0x7ff0000000000000u, 18720u},
      {0x7ff0000000000000u, 19200u},
      {0x7ff0000000000000u, 19200u},
      {0x412e8475b5c319edu, 28857u},
      {0x412e8475b5c319edu, 38400u},
      {0x7ff0000000000000u, 10560u},
      {0x7ff0000000000000u, 18720u},
      {0x7ff0000000000000u, 19200u},
      {0x7ff0000000000000u, 19200u},
      {0x7fefffffffffffffu, 38400u},
      {0x7ff0000000000000u, 5280u},
      {0x7ff0000000000000u, 19200u},
      {0x7ff0000000000000u, 18360u},
      {0x7ff0000000000000u, 19200u},
      {0x4004d4a1583213deu, 29618u},
      {0x4004d4a1583213deu, 36077u},
      {0x7ff0000000000000u, 1080u},
      {0x7ff0000000000000u, 5760u},
      {0x7ff0000000000000u, 9600u},
      {0x7ff0000000000000u, 18840u},
      {0x40151927975c0d8cu, 38400u},
      {0x40151927975c0d8cu, 38400u},
      {0x7ff0000000000000u, 10680u},
      {0x7ff0000000000000u, 18480u},
      {0x7ff0000000000000u, 19200u},
      {0x7ff0000000000000u, 19200u},
      {0x426d1a81019a575du, 28857u},
      {0x426d1a81019a575du, 38400u},
      {0x7ff0000000000000u, 10680u},
      {0x7ff0000000000000u, 18480u},
      {0x7ff0000000000000u, 19200u},
      {0x7ff0000000000000u, 5760u},
      {0x7ff0000000000000u, 18480u},
      {0x7ff0000000000000u, 18840u},
      {0x7ff0000000000000u, 19200u},
      {0x401b1e9d1679618fu, 29618u},
      {0x401b1e9d1679618fu, 35298u},
      {0x7ff0000000000000u, 1440u},
      {0x7ff0000000000000u, 5400u},
      {0x7ff0000000000000u, 18360u},
      {0x7ff0000000000000u, 18840u},
      {0x403bd22f796c9ab2u, 38400u},
      {0x403bd22f796c9ab2u, 38400u},
  };
  Prng prng(3107);
  const Sequence s = RandomWalk(&prng, 160);
  const Sequence near = NoisyResample(&prng, s, 120);
  const std::vector<Sequence> columns = PinnedColumnShapes(near);
  DtwScratch scratch;
  size_t next = 0;
  for (const StepCost step : {StepCost::kAbsolute, StepCost::kSquared}) {
    const Dtw dtw(DtwOptions{DtwCombiner::kMax, step, -1, false});
    for (size_t c = 0; c < columns.size(); ++c) {
      const double d = dtw.DistanceWithPath(s, columns[c]).distance;
      for (const double t : {0.5, 2.0, 0.5 * d, std::nextafter(d, 0.0), d,
                             1.25 * d}) {
        if (!std::isfinite(t)) {
          continue;  // only a finite threshold runs the pre-pass
        }
        ASSERT_LT(next, std::size(pinned));
        const DtwResult r = dtw.DistanceWithThreshold(s, columns[c], t,
                                                      &scratch);
        const std::string where = "shape=" + std::to_string(c) +
                                  " t=" + std::to_string(t) + " squared=" +
                                  std::to_string(step == StepCost::kSquared);
        EXPECT_EQ(std::bit_cast<uint64_t>(r.distance),
                  pinned[next].distance_bits)
            << where << " got " << r.distance;
        EXPECT_EQ(r.cells, pinned[next].cells) << where;
        ++next;
      }
    }
  }
  EXPECT_EQ(next, std::size(pinned));
}

// A scratch's rank table follows the columns' values, not their address:
// a query reassigned in place (same length, same buffer) must not reuse
// the table built for its old values.
TEST(DtwKernelTest, RankTableFollowsColumnsReassignedInPlace) {
  Prng prng(99);
  const Dtw dtw(DtwOptions{DtwCombiner::kMax, StepCost::kAbsolute, -1, false});
  DtwScratch shared;
  const Sequence s = RandomWalk(&prng, 96);
  Sequence q = NoisyResample(&prng, s, 80);
  for (int trial = 0; trial < 50; ++trial) {
    const double* before = q.data();
    q = trial % 2 == 0 ? NoisyResample(&prng, s, 80) : RandomWalk(&prng, 80);
    const double ref = dtw.DistanceWithPath(s, q).distance;
    for (const double t : {ref, 0.9 * ref, 2.0 * ref}) {
      DtwScratch fresh;
      const DtwResult got = dtw.DistanceWithThreshold(s, q, t, &shared);
      const DtwResult want = dtw.DistanceWithThreshold(s, q, t, &fresh);
      EXPECT_TRUE(SameBits(got.distance, want.distance))
          << "trial=" << trial << " same buffer=" << (before == q.data());
      EXPECT_EQ(got.cells, want.cells) << "trial=" << trial;
      EXPECT_TRUE(SameBits(got.distance, ref <= t ? ref : kInf))
          << "trial=" << trial;
    }
  }
}

// A walk on a grid of 0.25 steps: many equal values within and across
// sequences, so step costs tie with each other and with the thresholds.
Sequence TieHeavyWalk(Prng* prng, size_t n) {
  std::vector<double> v(n);
  int64_t x = prng->UniformInt(-4, 4);
  for (double& e : v) {
    e = 0.25 * static_cast<double>(x);
    x += prng->UniformInt(-1, 1);
  }
  return Sequence(std::move(v));
}

// PathWindows' contract, which the anti-diagonal DP relies on, on random
// variable-length pairs (n < m, n = m and n > m; smooth and tie-heavy;
// both step costs; thresholds at D, the next double above D, 1.25 D and
// 2 D): row 0's window starts at column 0, the last row's ends at m - 1,
// every window is non-empty, lo and hi never decrease, and the windows
// are the reference's. Just under D there is no window.
TEST(DtwKernelTest, PathWindowsAreMonotone) {
  Prng prng(1717);
  std::vector<size_t> lo;
  std::vector<size_t> hi;
  for (const StepCost step : {StepCost::kAbsolute, StepCost::kSquared}) {
    const Dtw dtw(DtwOptions{DtwCombiner::kMax, step, -1, false});
    for (int trial = 0; trial < 300; ++trial) {
      const size_t n = static_cast<size_t>(prng.UniformInt(1, 150));
      const size_t m = static_cast<size_t>(prng.UniformInt(1, 150));
      const bool ties = trial % 2 == 0;
      const Sequence s = ties ? TieHeavyWalk(&prng, n) : RandomWalk(&prng, n);
      const Sequence q =
          ties ? TieHeavyWalk(&prng, m) : NoisyResample(&prng, s, m);
      const double d = dtw.DistanceWithPath(s, q).distance;
      ASSERT_TRUE(std::isfinite(d));
      for (const double t : {d, std::nextafter(d, kInf), 1.25 * d, 2.0 * d}) {
        const std::string where = "trial=" + std::to_string(trial) +
                                  " n=" + std::to_string(n) +
                                  " m=" + std::to_string(m) +
                                  " t=" + std::to_string(t);
        ASSERT_TRUE(LinfPathWindows(s, q, step, t, &lo, &hi)) << where;
        ASSERT_EQ(lo.size(), n) << where;
        ASSERT_EQ(hi.size(), n) << where;
        EXPECT_EQ(lo[0], 0u) << where;
        EXPECT_EQ(hi[n - 1], m - 1) << where;
        const auto ref = ReferencePathWindows(s, q, step, t);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_LE(lo[i], hi[i]) << where << " i=" << i;
          if (i > 0) {
            EXPECT_LE(lo[i - 1], lo[i]) << where << " i=" << i;
            EXPECT_LE(hi[i - 1], hi[i]) << where << " i=" << i;
          }
          EXPECT_EQ(lo[i], ref[i].first) << where << " i=" << i;
          EXPECT_EQ(hi[i], ref[i].second) << where << " i=" << i;
        }
      }
      if (d > 0.0) {
        EXPECT_FALSE(
            LinfPathWindows(s, q, step, std::nextafter(d, 0.0), &lo, &hi));
        EXPECT_TRUE(lo.empty() && hi.empty());
      }
    }
  }
}

// The anti-diagonal DP behind an accepting pre-pass, through the prepared
// overload (one PreparedQuery per query, evaluated against many
// candidates), against the full-matrix reference: distance bits equal,
// cells n * m (the pre-pass rows) plus the window cells. Shapes n < m,
// n = m and n > m, including n = 1 and m = 1; both step costs; inputs
// whose step costs overflow to +inf; and queries longer than
// kMaxRankedColumns, whose pre-pass compares every column instead of
// ranking. Every result also equals the Sequence overload's. One scratch
// throughout, so a longer earlier pair's diagonals would show.
TEST(DtwKernelTest, DiagonalDpMatchesPathReference) {
  struct Shape {
    size_t m;
    std::vector<size_t> ns;
  };
  const size_t long_m = kMaxRankedColumns + 76;
  const std::vector<Shape> shapes = {
      {1, {1, 2, 9}},
      {2, {1, 2, 3, 40}},
      {37, {1, 5, 36, 37, 38, 90}},
      {64, {1, 63, 64, 65, 200}},
      {129, {1, 64, 128, 129, 130}},
      {long_m, {1, 300, long_m, 1500}},
  };
  const double specials[] = {kMax, -kMax, kBig, -kBig};
  Prng prng(3131);
  DtwScratch scratch;
  DtwScratch convenience;
  for (const StepCost step : {StepCost::kAbsolute, StepCost::kSquared}) {
    const Dtw dtw(DtwOptions{DtwCombiner::kMax, step, -1, false});
    for (const Shape& shape : shapes) {
      for (const bool overflow : {false, true}) {
        const Sequence walk = RandomWalk(&prng, shape.m);
        std::vector<double> qv(walk.data(), walk.data() + shape.m);
        if (overflow) {
          qv[static_cast<size_t>(prng.UniformInt(
              0, static_cast<int64_t>(shape.m) - 1))] =
              specials[prng.UniformInt(0, 3)];
        }
        const Sequence q(std::move(qv));
        const PreparedQuery prepared = dtw.Prepare(q);
        for (const size_t n : shape.ns) {
          const Sequence near = NoisyResample(&prng, walk, n);
          std::vector<double> sv(near.data(), near.data() + n);
          if (overflow && prng.UniformInt(0, 1) == 0) {
            sv[static_cast<size_t>(prng.UniformInt(
                0, static_cast<int64_t>(n) - 1))] =
                specials[prng.UniformInt(0, 3)];
          }
          const Sequence s(std::move(sv));
          const double ref = dtw.DistanceWithPath(s, q).distance;
          std::vector<double> thresholds = {0.5, 2.0, kMax};
          if (std::isfinite(ref)) {
            thresholds = {ref, std::nextafter(ref, kInf), 1.25 * ref, 0.0};
          }
          for (const double t : thresholds) {
            if (!std::isfinite(t)) {
              continue;  // only a finite threshold runs the pre-pass
            }
            const std::string where = "n=" + std::to_string(n) +
                                      " m=" + std::to_string(shape.m) +
                                      " overflow=" + std::to_string(overflow) +
                                      " t=" + std::to_string(t);
            const DtwResult r =
                dtw.DistanceWithThreshold(s, prepared, t, &scratch);
            EXPECT_TRUE(SameBits(r.distance, ref <= t ? ref : kInf))
                << where << " got=" << r.distance << " ref=" << ref;
            if (ref <= t) {
              EXPECT_EQ(r.cells, n * shape.m + PathWindowCells(s, q, step, t))
                  << where;
            }
            const DtwResult c =
                dtw.DistanceWithThreshold(s, q, t, &convenience);
            EXPECT_TRUE(SameBits(c.distance, r.distance)) << where;
            EXPECT_EQ(c.cells, r.cells) << where;
          }
        }
      }
    }
  }
}

// The rank table as ColumnRanks built it before its counting sort: every
// column sorted by (value, column), below(r) for r = 0 .. m, and each
// bucket's window found by walking the ranks, over the same buckets.
struct SortBuiltTable {
  std::vector<double> values;
  std::vector<std::vector<uint64_t>> below;
  std::vector<size_t> window;
};

SortBuiltTable BuildBySorting(const std::vector<double>& q) {
  const size_t m = q.size();
  const size_t words = (m + 63) / 64;
  std::vector<std::pair<double, uint32_t>> ranked(m);
  for (size_t j = 0; j < m; ++j) {
    ranked[j] = {q[j], static_cast<uint32_t>(j)};
  }
  std::sort(ranked.begin(), ranked.end());
  SortBuiltTable table;
  table.below.assign(m + 1, std::vector<uint64_t>(words, 0));
  for (size_t r = 0; r < m; ++r) {
    table.values.push_back(ranked[r].first);
    table.below[r + 1] = table.below[r];
    table.below[r + 1][ranked[r].second / 64] |= uint64_t{1}
                                                 << (ranked[r].second % 64);
  }
  const size_t trim = m > 2 ? 1 : 0;
  const size_t buckets = 4 * m;
  const double low = table.values[trim];
  const double last_bucket = static_cast<double>(buckets - 1);
  double scale =
      static_cast<double>(buckets) / (table.values[m - 1 - trim] - low);
  if (!std::isfinite(scale)) {
    scale = 0.0;
  }
  const auto bucket = [&](double x) {
    double y = (x - low) * scale;
    y = y > 0.0 ? y : 0.0;
    y = y < last_bucket ? y : last_bucket;
    return static_cast<size_t>(y);
  };
  size_t r = 0;
  for (size_t k = 0; k < buckets; ++k) {
    while (r < m && bucket(table.values[r]) + 1 < k) {
      ++r;
    }
    table.window.push_back(r);
  }
  return table;
}

// Column shapes for the table build: a walk, all columns equal, one and
// two outliers on each side, one on both sides, ties with +-0, a zero span
// (every column but the extremes equal), and a span beyond DBL_MAX.
std::vector<std::vector<double>> TableColumns(Prng* prng, size_t m) {
  const Sequence walk = RandomWalk(prng, m);
  const std::vector<double> base(walk.data(), walk.data() + m);
  std::vector<std::vector<double>> shapes = {base,
                                             std::vector<double>(m, base[0])};
  for (const double outlier : {1e6, -1e6, kMax, -kMax}) {
    std::vector<double> one = base;
    one[m / 2] = outlier;
    shapes.push_back(one);
    one[m / 3] = std::fabs(outlier) == kMax ? outlier : 2.0 * outlier;
    shapes.push_back(std::move(one));
  }
  std::vector<double> both = base;
  both[0] = -1e6;
  both[m - 1] = 1e6;
  shapes.push_back(std::move(both));
  std::vector<double> ties(m);
  for (double& e : ties) {
    const double choices[] = {-0.0, 0.0, 0.25, -0.25, 0.5};
    e = choices[prng->UniformInt(0, 4)];
  }
  shapes.push_back(std::move(ties));
  std::vector<double> flat(m, base[0]);
  flat[0] = base[0] - 1.0;
  flat[m - 1] = base[0] + 1.0;
  shapes.push_back(std::move(flat));
  std::vector<double> huge(m);
  for (size_t j = 0; j < m; ++j) {
    huge[j] = (j % 2 == 0 ? -1.0 : 1.0) * prng->UniformDouble(0.6, 0.9) * kMax;
  }
  shapes.push_back(std::move(huge));
  return shapes;
}

// ColumnRanks' counting-sort build gives the sort-built table: the same
// value bits rank by rank, the same below masks and the same bucket
// windows.
TEST(DtwKernelTest, RankTableBuildMatchesSortBuiltTable) {
  Prng prng(4096);
  ColumnRanks ranks;
  for (const size_t m : {size_t{1}, size_t{2}, size_t{3}, size_t{63},
                         size_t{64}, size_t{65}, kMaxRankedColumns}) {
    const std::vector<std::vector<double>> shapes = TableColumns(&prng, m);
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      const std::vector<double>& q = shapes[shape];
      ranks.Assign(q.data(), m);
      const SortBuiltTable want = BuildBySorting(q);
      const std::string where =
          "m=" + std::to_string(m) + " shape=" + std::to_string(shape);
      for (size_t r = 0; r < m; ++r) {
        ASSERT_TRUE(SameBits(ranks.value(r), want.values[r]))
            << where << " r=" << r;
      }
      for (size_t r = 0; r <= m; ++r) {
        for (size_t w = 0; w < want.below[r].size(); ++w) {
          ASSERT_EQ(ranks.below(r)[w], want.below[r][w])
              << where << " r=" << r << " w=" << w;
        }
      }
      for (size_t k = 0; k < want.window.size(); ++k) {
        ASSERT_EQ(ranks.window(k), want.window[k]) << where << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace warpindex
