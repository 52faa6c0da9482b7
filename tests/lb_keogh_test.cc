// Envelope lower bounds (dtw/lb_keogh.h, dtw/lb_improved.h): envelope
// construction against a brute-force reference, bound validity across
// base distances / bands / length mismatches, the LB_Keogh <= LB_Improved
// dominance, the full-width degeneracy to the one-sided LB_Yi bound, and
// the kernels' exactness: bit-identical to a brute-force two-pass
// reference without a threshold, and early abandoning that never changes
// which side of the threshold a bound falls on.

#include "dtw/lb_keogh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/prng.h"
#include "dtw/dtw.h"
#include "dtw/lb_improved.h"
#include "dtw/lb_yi.h"

namespace warpindex {
namespace {

Sequence RandomSequence(Prng* prng, int64_t min_len, int64_t max_len) {
  Sequence s;
  const int64_t len = prng->UniformInt(min_len, max_len);
  for (int64_t i = 0; i < len; ++i) {
    s.Append(prng->UniformDouble(-5.0, 5.0));
  }
  return s;
}

Sequence RandomWalkSequence(Prng* prng, int64_t min_len, int64_t max_len) {
  Sequence s;
  const int64_t len = prng->UniformInt(min_len, max_len);
  double v = prng->UniformDouble(-1.0, 1.0);
  for (int64_t i = 0; i < len; ++i) {
    s.Append(v);
    v += prng->UniformDouble(-0.2, 0.2);
  }
  return s;
}

// Brute-force window min/max for the envelope reference.
double WindowExtreme(const Sequence& s, size_t j, size_t r, bool want_max) {
  const size_t lo = j >= r ? j - r : 0;
  const size_t hi = std::min(s.size() - 1, j + r);
  double v = s[lo];
  for (size_t k = lo + 1; k <= hi; ++k) {
    v = want_max ? std::max(v, s[k]) : std::min(v, s[k]);
  }
  return v;
}

TEST(BandEnvelopeTest, MatchesBruteForceWindows) {
  // Exact equality: the streaming filter selects elements, it does no
  // arithmetic. Radius 0, 1, a few interior widths, exactly m, beyond m
  // and kFullWidthRadius (whose j + r would overflow unclamped).
  Prng prng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const Sequence s = RandomSequence(&prng, 1, 40);
    for (const size_t r : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                           s.size(), s.size() + 1, size_t{1000},
                           kFullWidthRadius}) {
      const BandEnvelope env = ComputeBandEnvelope(s, r);
      ASSERT_EQ(env.size(), s.size());
      ASSERT_EQ(env.radius, r);
      const size_t clamped = std::min(r, s.size());
      for (size_t j = 0; j < s.size(); ++j) {
        ASSERT_EQ(env.lower[j], WindowExtreme(s, j, clamped, false))
            << "r=" << r << " j=" << j;
        ASSERT_EQ(env.upper[j], WindowExtreme(s, j, clamped, true))
            << "r=" << r << " j=" << j;
      }
    }
  }
}

TEST(BandEnvelopeTest, MatchesBruteForceOnPlateausAndMonotoneRuns) {
  // Ties and long monotone runs exercise the wedges' pop rules.
  const std::vector<std::vector<double>> shapes = {
      {2.0, 2.0, 2.0, 2.0, 2.0},
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0},
      {7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0},
      {1.0, 3.0, 3.0, 1.0, 1.0, 3.0, 2.0, 2.0, 0.0},
  };
  for (const std::vector<double>& shape : shapes) {
    const Sequence s(shape);
    for (const size_t r : {size_t{0}, size_t{1}, size_t{2}, s.size()}) {
      const BandEnvelope env = ComputeBandEnvelope(s, r);
      for (size_t j = 0; j < s.size(); ++j) {
        ASSERT_EQ(env.lower[j], WindowExtreme(s, j, r, false));
        ASSERT_EQ(env.upper[j], WindowExtreme(s, j, r, true));
      }
    }
  }
}

TEST(BandEnvelopeTest, SuffixArraysMatchBruteForce) {
  Prng prng(42);
  const Sequence s = RandomSequence(&prng, 10, 30);
  const BandEnvelope env = ComputeBandEnvelope(s, 2);
  for (size_t j = 0; j < s.size(); ++j) {
    double lo = s[j];
    double hi = s[j];
    for (size_t k = j; k < s.size(); ++k) {
      lo = std::min(lo, s[k]);
      hi = std::max(hi, s[k]);
    }
    EXPECT_DOUBLE_EQ(env.suffix_min[j], lo);
    EXPECT_DOUBLE_EQ(env.suffix_max[j], hi);
  }
}

TEST(BandEnvelopeTest, ZeroRadiusEnvelopeIsTheSequenceItself) {
  const Sequence s({3.0, -1.0, 4.0, 1.5});
  const BandEnvelope env = ComputeBandEnvelope(s, 0);
  for (size_t j = 0; j < s.size(); ++j) {
    EXPECT_DOUBLE_EQ(env.lower[j], s[j]);
    EXPECT_DOUBLE_EQ(env.upper[j], s[j]);
  }
}

TEST(BandEnvelopeTest, FullWidthRadiusDoesNotOverflow) {
  const Sequence s({1.0, 2.0, 0.5});
  const BandEnvelope env = ComputeBandEnvelope(s, kFullWidthRadius);
  EXPECT_EQ(env.radius, kFullWidthRadius);
  for (size_t j = 0; j < s.size(); ++j) {
    EXPECT_DOUBLE_EQ(env.lower[j], 0.5);
    EXPECT_DOUBLE_EQ(env.upper[j], 2.0);
  }
}

std::vector<DtwOptions> AllModes(int band) {
  DtwOptions linf = DtwOptions::Linf();
  DtwOptions l1 = DtwOptions::L1();
  DtwOptions l2 = DtwOptions::L2();
  linf.band = band;
  l1.band = band;
  l2.band = band;
  return {linf, l1, l2};
}

TEST(LbKeoghTest, LowerBoundsBandedDtwAllModesAndBands) {
  Prng prng(43);
  for (const int band : {-1, 0, 1, 3, 100}) {
    for (const DtwOptions& options : AllModes(band)) {
      const Dtw dtw(options);
      for (int trial = 0; trial < 120; ++trial) {
        const Sequence s = RandomWalkSequence(&prng, 2, 40);
        const Sequence q = RandomWalkSequence(&prng, 2, 40);
        const BandEnvelope q_env =
            ComputeBandEnvelope(q, EnvelopeRadiusFor(options));
        const double lb = LbKeogh(s, q, q_env, options);
        const double exact = dtw.Distance(s, q).distance;
        ASSERT_LE(lb, exact + 1e-9)
            << "band=" << band << " s=" << s.ToString(40)
            << " q=" << q.ToString(40);
      }
    }
  }
}

TEST(LbKeoghTest, NarrowEnvelopeFallbackStaysValid) {
  // The envelope is built with radius 1 but the pair's length gap forces
  // a much wider effective band — LbKeogh must recompute rather than use
  // the too-narrow windows.
  Prng prng(44);
  DtwOptions options = DtwOptions::Linf();
  options.band = 1;
  const Dtw dtw(options);
  for (int trial = 0; trial < 100; ++trial) {
    const Sequence s = RandomWalkSequence(&prng, 30, 40);
    const Sequence q = RandomWalkSequence(&prng, 2, 6);
    const BandEnvelope q_env = ComputeBandEnvelope(q, 1);
    const double lb = LbKeogh(s, q, q_env, options);
    ASSERT_LE(lb, dtw.Distance(s, q).distance + 1e-9);
  }
}

TEST(LbKeoghTest, FullWidthEnvelopeEqualsOneSidedLbYi) {
  // With a full-width envelope every window is [min Q, max Q], so the
  // bound degenerates to LB_Yi's one-sided term (s against Q's global
  // envelope) and can never exceed the two-sided LbYi.
  Prng prng(45);
  const DtwOptions options = DtwOptions::Linf();  // unconstrained
  for (int trial = 0; trial < 100; ++trial) {
    const Sequence s = RandomSequence(&prng, 1, 30);
    const Sequence q = RandomSequence(&prng, 1, 30);
    const BandEnvelope q_env = ComputeBandEnvelope(q, kFullWidthRadius);
    const double keogh = LbKeogh(s, q, q_env, options);
    const double yi = LbYi(s, q, options);
    ASSERT_LE(keogh, yi + 1e-12);
  }
}

TEST(LbKeoghTest, ZeroBandIdenticalLengthsIsPointwiseDistance) {
  // band = 0 with equal lengths leaves a single warping path (the
  // diagonal); the envelope is the sequence itself, so the bound equals
  // the exact distance.
  DtwOptions options = DtwOptions::Linf();
  options.band = 0;
  const Sequence s({1.0, 5.0, 2.0});
  const Sequence q({2.0, 3.0, 2.5});
  const BandEnvelope q_env = ComputeBandEnvelope(q, 0);
  const double lb = LbKeogh(s, q, q_env, options);
  const double exact = Dtw(options).Distance(s, q).distance;
  EXPECT_DOUBLE_EQ(lb, exact);
  EXPECT_DOUBLE_EQ(lb, 2.0);  // max(|1-2|, |5-3|, |2-2.5|)
}

TEST(LbImprovedTest, DominatesLbKeoghAllModesAndBands) {
  Prng prng(46);
  for (const int band : {-1, 0, 2, 50}) {
    for (const DtwOptions& options : AllModes(band)) {
      for (int trial = 0; trial < 100; ++trial) {
        const Sequence s = RandomWalkSequence(&prng, 2, 35);
        const Sequence q = RandomWalkSequence(&prng, 2, 35);
        const BandEnvelope q_env =
            ComputeBandEnvelope(q, EnvelopeRadiusFor(options));
        const double keogh = LbKeogh(s, q, q_env, options);
        const double improved = LbImproved(s, q, q_env, options);
        ASSERT_GE(improved, keogh - 1e-9) << "band=" << band;
      }
    }
  }
}

TEST(LbImprovedTest, LowerBoundsBandedDtwAllModesAndBands) {
  Prng prng(47);
  for (const int band : {-1, 0, 1, 4, 100}) {
    for (const DtwOptions& options : AllModes(band)) {
      const Dtw dtw(options);
      for (int trial = 0; trial < 120; ++trial) {
        const Sequence s = RandomWalkSequence(&prng, 2, 40);
        const Sequence q = RandomWalkSequence(&prng, 2, 40);
        const BandEnvelope q_env =
            ComputeBandEnvelope(q, EnvelopeRadiusFor(options));
        const double lb = LbImproved(s, q, q_env, options);
        const double exact = dtw.Distance(s, q).distance;
        ASSERT_LE(lb, exact + 1e-9)
            << "band=" << band << " s=" << s.ToString(40)
            << " q=" << q.ToString(40);
      }
    }
  }
}

TEST(LbImprovedTest, TighterThanKeoghOnShiftedWalks) {
  // A banded sum-combined config where the second pass adds real pruning
  // power (under the max combiner the second one-sided term rarely
  // exceeds the first): aggregate tightness over offset random walks.
  Prng prng(48);
  DtwOptions options = DtwOptions::L1();
  options.band = 4;
  double keogh_sum = 0.0;
  double improved_sum = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    const Sequence q = RandomWalkSequence(&prng, 20, 30);
    Sequence s;
    for (double v : q.elements()) {
      s.Append(v + prng.UniformDouble(-0.5, 0.5));
    }
    const BandEnvelope q_env =
        ComputeBandEnvelope(q, EnvelopeRadiusFor(options));
    keogh_sum += LbKeogh(s, q, q_env, options);
    improved_sum += LbImproved(s, q, q_env, options);
  }
  EXPECT_GT(improved_sum, keogh_sum);
}

TEST(OneSidedKeoghTest, ProjectionClampsIntoEnvelope) {
  const Sequence q({0.0, 1.0, 2.0, 3.0});
  const Sequence s({-1.0, 1.5, 10.0, 2.5});
  const DtwOptions options = DtwOptions::Linf();
  const BandEnvelope env = ComputeBandEnvelope(q, 1);
  std::vector<double> h;
  internal::OneSidedKeogh(s, env, 1, options, &h);
  ASSERT_EQ(h.size(), s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(h[i], env.lower[i]);
    EXPECT_LE(h[i], env.upper[i]);
    // h is the nearest point of the window, so it never moves past s.
    EXPECT_LE(std::min(s[i], env.lower[i]), h[i]);
    EXPECT_LE(h[i], std::max(s[i], env.upper[i]));
  }
  EXPECT_DOUBLE_EQ(h[0], 0.0);   // clamped up to window min
  EXPECT_DOUBLE_EQ(h[1], 1.5);   // inside, unchanged
  EXPECT_DOUBLE_EQ(h[2], 3.0);   // clamped down to window max
}

// ---- Kernel exactness.

// One-sided bound of x against y's windows, by brute force: position i
// sees y[i - R, i + R] clipped to y (right-clipped to y's end beyond it),
// the windows every DP alignment admits. Accumulated (pre-sqrt) in index
// order, as the kernels accumulate; `h` (optional) gets x clamped into
// each window.
double BruteOneSided(const Sequence& x, const Sequence& y, size_t radius,
                     const DtwOptions& options, std::vector<double>* h) {
  const size_t m = y.size();
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const size_t from = i >= radius ? std::min(i - radius, m - 1) : 0;
    const size_t to = std::min(m - 1, i + radius);
    double lo = y[from];
    double hi = y[from];
    for (size_t k = from + 1; k <= to; ++k) {
      lo = std::min(lo, y[k]);
      hi = std::max(hi, y[k]);
    }
    const double v = x[i];
    const double d = v < lo ? lo - v : (v > hi ? v - hi : 0.0);
    if (h != nullptr) {
      h->push_back(v < lo ? lo : (v > hi ? hi : v));
    }
    const double cost = options.step == StepCost::kSquared ? d * d : d;
    acc = options.combiner == DtwCombiner::kSum ? acc + cost
                                                : std::max(acc, cost);
  }
  return acc;
}

double ReferenceKeogh(const Sequence& s, const Sequence& q,
                      const DtwOptions& options) {
  const size_t radius =
      EffectiveSakoeChibaRadius(options, s.size(), q.size());
  const double acc = BruteOneSided(s, q, radius, options, nullptr);
  return options.take_sqrt ? std::sqrt(acc) : acc;
}

// Lemire's two passes as originally composed: pass 1 records h, pass 2
// bounds q against h's envelope, and the parts combine at the end.
double ReferenceImproved(const Sequence& s, const Sequence& q,
                         const DtwOptions& options) {
  const size_t radius =
      EffectiveSakoeChibaRadius(options, s.size(), q.size());
  std::vector<double> h;
  const double part1 = BruteOneSided(s, q, radius, options, &h);
  const double part2 =
      BruteOneSided(q, Sequence(std::move(h)), radius, options, nullptr);
  const double acc = options.combiner == DtwCombiner::kSum
                         ? part1 + part2
                         : std::max(part1, part2);
  return options.take_sqrt ? std::sqrt(acc) : acc;
}

// Pairs for the exactness sweeps: random walks of mismatched lengths, so
// both the envelope's own windows, the widened-envelope rebuild (length
// gap > band) and the beyond-the-end suffix windows run.
struct KernelPair {
  Sequence s;
  Sequence q;
};

std::vector<KernelPair> KernelPairs(Prng* prng, size_t count) {
  std::vector<KernelPair> pairs;
  for (size_t i = 0; i < count; ++i) {
    pairs.push_back({RandomWalkSequence(prng, 1, 40),
                     RandomWalkSequence(prng, 1, 40)});
  }
  return pairs;
}

TEST(LbKernelExactnessTest, NoThresholdIsBitIdenticalToTheReference) {
  Prng prng(51);
  const std::vector<KernelPair> pairs = KernelPairs(&prng, 150);
  size_t widened = 0;
  for (const int band : {-1, 0, 1, 3, 10}) {
    for (const DtwOptions& options : AllModes(band)) {
      LbScratch scratch;  // reused across pairs of every length
      for (const KernelPair& pair : pairs) {
        const BandEnvelope q_env =
            ComputeBandEnvelope(pair.q, EnvelopeRadiusFor(options));
        widened += q_env.radius < EffectiveSakoeChibaRadius(
                                      options, pair.s.size(), pair.q.size());
        const double keogh = ReferenceKeogh(pair.s, pair.q, options);
        const double improved = ReferenceImproved(pair.s, pair.q, options);
        ASSERT_EQ(LbKeogh(pair.s, pair.q, q_env, options), keogh)
            << "band=" << band << " |s|=" << pair.s.size()
            << " |q|=" << pair.q.size();
        ASSERT_EQ(LbKeogh(pair.s, pair.q, q_env, options, kInfiniteDistance,
                          &scratch),
                  keogh);
        ASSERT_EQ(LbImproved(pair.s, pair.q, q_env, options), improved)
            << "band=" << band << " |s|=" << pair.s.size()
            << " |q|=" << pair.q.size();
        ASSERT_EQ(LbImproved(pair.s, pair.q, q_env, options,
                             kInfiniteDistance, &scratch),
                  improved);
      }
    }
  }
  EXPECT_GT(widened, 100u);  // the rebuild path really ran
}

TEST(LbKernelExactnessTest, AbandonKeepsTheThresholdDecision) {
  // For a finite threshold t the abandoning kernels must decide
  // "bound > t" exactly as the full bound does, and never return more
  // than the full bound. Thresholds: 0, the exact bound itself (a tie
  // must not abandon), one ulp either side of it, and fractions of it.
  Prng prng(52);
  const std::vector<KernelPair> pairs = KernelPairs(&prng, 120);
  size_t abandoned = 0;
  for (const int band : {-1, 0, 2, 8}) {
    for (const DtwOptions& options : AllModes(band)) {
      LbScratch scratch;
      for (const KernelPair& pair : pairs) {
        const BandEnvelope q_env =
            ComputeBandEnvelope(pair.q, EnvelopeRadiusFor(options));
        const double full_keogh = LbKeogh(pair.s, pair.q, q_env, options);
        const double full_improved =
            LbImproved(pair.s, pair.q, q_env, options);
        for (const double full : {full_keogh, full_improved}) {
          const double thresholds[] = {
              0.0,
              full,
              std::nextafter(full, 0.0),
              std::nextafter(full, kInfiniteDistance),
              0.25 * full,
              0.75 * full,
              prng.UniformDouble(0.0, 2.0 * full + 0.1)};
          for (const double t : thresholds) {
            const double keogh =
                LbKeogh(pair.s, pair.q, q_env, options, t, &scratch);
            ASSERT_EQ(keogh > t, full_keogh > t)
                << "band=" << band << " t=" << t;
            ASSERT_LE(keogh, full_keogh);
            const double improved =
                LbImproved(pair.s, pair.q, q_env, options, t, &scratch);
            ASSERT_EQ(improved > t, full_improved > t)
                << "band=" << band << " t=" << t;
            ASSERT_LE(improved, full_improved);
            abandoned += improved < full_improved;
            // A threshold at or above the bound returns it unchanged.
            if (t >= full_improved) {
              ASSERT_EQ(improved, full_improved);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(abandoned, 100u);  // early exits really happened
}

TEST(LbKernelExactnessTest, AccumulatedThresholdMatchesTheSqrtDecision) {
  // Under the L2 convention the kernels compare the pre-sqrt accumulator
  // against a converted threshold; acc > T must hold iff sqrt(acc) > t.
  const DtwOptions l2 = DtwOptions::L2();
  Prng prng(53);
  for (int trial = 0; trial < 2000; ++trial) {
    const double t = trial % 2 == 0 ? prng.UniformDouble(0.0, 10.0)
                                    : std::ldexp(prng.UniformDouble(1.0, 2.0),
                                                 static_cast<int>(
                                                     prng.UniformInt(-60, 60)));
    const double limit = internal::AccumulatedThreshold(t, l2);
    ASSERT_LE(std::sqrt(limit), t);
    ASSERT_GT(std::sqrt(std::nextafter(limit, kInfiniteDistance)), t);
  }
  EXPECT_EQ(internal::AccumulatedThreshold(0.0, l2), 0.0);
  EXPECT_EQ(internal::AccumulatedThreshold(kInfiniteDistance, l2),
            kInfiniteDistance);
  EXPECT_EQ(internal::AccumulatedThreshold(-1.0, l2), -1.0);
  EXPECT_EQ(internal::AccumulatedThreshold(1e300, l2),
            std::numeric_limits<double>::max());
  EXPECT_EQ(internal::AccumulatedThreshold(2.5, DtwOptions::L1()), 2.5);
}

}  // namespace
}  // namespace warpindex
