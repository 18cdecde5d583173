/// The Jakes fader suites: the libm oracle's own properties (JakesFader), the
/// production fader's parameter checks, and second-order statistics for both.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/fading_theory.hpp"
#include "channel/jakes_v2.hpp"
#include "jakes_oracle.hpp"
#include "util/rng.hpp"

namespace wdc {
namespace {

TEST(Jakes, RejectsBadParams) {
  Rng rng(1);
  EXPECT_THROW(JakesFader(0.0, rng), std::invalid_argument);
  EXPECT_THROW(JakesFader(-1.0, rng), std::invalid_argument);
  EXPECT_THROW(JakesFader(10.0, rng, 2), std::invalid_argument);
}

TEST(Jakes, V2RejectsOversizedEnsemble) {
  Rng rng(7);
  EXPECT_THROW(JakesFaderV2(10.0, rng, 65), std::invalid_argument);
  EXPECT_THROW(JakesFaderV2(10.0, rng, 2), std::invalid_argument);
  EXPECT_NO_THROW(JakesFaderV2(10.0, rng, 64));
}

TEST(Jakes, UnitMeanPower) {
  Rng rng(2);
  JakesFader f(10.0, rng, 16);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += f.power_gain(i * 0.037);  // >> coherence time
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(Jakes, DeterministicGivenPhases) {
  Rng rng(3);
  JakesFader f(5.0, rng);
  EXPECT_DOUBLE_EQ(f.power_gain(1.234), f.power_gain(1.234));
}

TEST(Jakes, DifferentSeedsDecorrelated) {
  Rng r1(4), r2(5);
  JakesFader a(5.0, r1), b(5.0, r2);
  EXPECT_NE(a.power_gain(1.0), b.power_gain(1.0));
}

TEST(Jakes, CoherentOverShortLags) {
  // Correlation of g(t) and g(t+tau) for tau << 1/fd should be high.
  Rng rng(6);
  JakesFader f(2.0, rng);  // coherence ~ 0.2 s
  double same = 0.0, base = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double t = i * 1.3;
    const double g0 = f.power_gain(t);
    const double g1 = f.power_gain(t + 0.005);
    same += std::fabs(g1 - g0);
    base += g0;
  }
  // Mean absolute change over 5 ms must be small relative to the mean level.
  EXPECT_LT(same / n, 0.15 * (base / n));
}

TEST(Jakes, DecorrelatedOverLongLags) {
  Rng rng(7);
  JakesFader f(20.0, rng);
  // Empirical correlation between samples far beyond the coherence time.
  double sxy = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double t = i * 2.11;
    const double x = f.power_gain(t);
    const double y = f.power_gain(t + 1.0);  // 20 coherence times later
    sx += x; sy += y; sxy += x * y; sxx += x * x; syy += y * y;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  const double corr = cov / std::sqrt(vx * vy);
  EXPECT_LT(std::fabs(corr), 0.12);
}

TEST(Jakes, RayleighDistributionShape) {
  // Power gain should be ~Exp(1): P(g < 0.1) ≈ 0.095, P(g > 2.3) ≈ 0.10.
  Rng rng(8);
  JakesFader f(10.0, rng, 32);
  int deep = 0, high = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = f.power_gain(i * 0.073);
    if (g < 0.1) ++deep;
    if (g > 2.3) ++high;
  }
  EXPECT_NEAR(deep / static_cast<double>(n), 1.0 - std::exp(-0.1), 0.03);
  EXPECT_NEAR(high / static_cast<double>(n), std::exp(-2.3), 0.03);
}

TEST(Jakes, DbConversion) {
  Rng rng(9);
  JakesFader f(5.0, rng);
  const double g = f.power_gain(0.5);
  EXPECT_NEAR(f.power_gain_db(0.5), 10.0 * std::log10(g), 1e-9);
}

// ---------------------------------------------------------------------------
// Second-order statistics vs Rayleigh theory, for the production fader and
// its libm oracle. Level-crossing rate and average fade duration are the
// statistics link adaptation actually exploits (how often the channel dips,
// and for how long), so both must reproduce them — not just the amplitude
// distribution.

template <typename Fader>
struct SecondOrderStats {
  double lcr_hz = 0.0;  ///< downward crossings of g < rho^2 per second
  double afd_s = 0.0;   ///< mean dwell below the threshold per fade
};

/// Sample g(t) on a dt grid and count downward crossings of rho^2 and the
/// total dwell below it. dt resolves the fades: at rho >= 0.5 the average
/// fade lasts >= 0.7/f_d seconds, ~70 samples at the dt used below.
template <typename Fader>
SecondOrderStats<Fader> measure_second_order(std::uint64_t seed, double fd,
                                             double rho, double dur_s,
                                             double dt) {
  Rng rng(seed);
  Fader f(fd, rng, 16);
  const double thr = rho * rho;
  const auto n = static_cast<std::size_t>(dur_s / dt);
  std::size_t crossings = 0, below = 0;
  bool was_below = f.power_gain(0.0) < thr;
  for (std::size_t i = 1; i < n; ++i) {
    const bool is_below = f.power_gain(static_cast<double>(i) * dt) < thr;
    if (is_below && !was_below) ++crossings;
    if (is_below) ++below;
    was_below = is_below;
  }
  SecondOrderStats<Fader> s;
  s.lcr_hz = static_cast<double>(crossings) / dur_s;
  s.afd_s = crossings ? static_cast<double>(below) * dt /
                            static_cast<double>(crossings)
                      : 0.0;
  return s;
}

template <typename Fader>
class JakesSecondOrder : public ::testing::Test {};

using FaderGenerations = ::testing::Types<JakesFader, JakesFaderV2>;
TYPED_TEST_SUITE(JakesSecondOrder, FaderGenerations);

TYPED_TEST(JakesSecondOrder, LevelCrossingRateMatchesRayleighTheory) {
  // N(rho) = sqrt(2*pi) * f_d * rho * exp(-rho^2). Bands are ±15%: a 16-
  // oscillator sum-of-sinusoids plus one finite 300 s record reproduces the
  // ideal-Rayleigh LCR to ~5-10% (measured across seeds); 15% keeps the test
  // seed-robust while still catching a broken spectrum (a wrong Doppler
  // scaling shifts the LCR proportionally).
  const double fd = 20.0;
  for (const double rho : {0.5, 1.0}) {
    const auto s =
        measure_second_order<TypeParam>(11, fd, rho, 300.0, 0.0005);
    const double theory = analysis::rayleigh_lcr(
        10.0 * std::log10(rho * rho), 0.0, fd);
    EXPECT_NEAR(s.lcr_hz, theory, 0.15 * theory)
        << "rho=" << rho << " lcr=" << s.lcr_hz << " theory=" << theory;
  }
}

TYPED_TEST(JakesSecondOrder, AverageFadeDurationMatchesRayleighTheory) {
  // AFD(rho) = (exp(rho^2) - 1) / (rho * f_d * sqrt(2*pi)); same ±15%
  // rationale as the LCR bands (AFD = outage probability / LCR, both of
  // which are individually within a few percent at this record length).
  const double fd = 20.0;
  for (const double rho : {0.5, 1.0}) {
    const auto s =
        measure_second_order<TypeParam>(12, fd, rho, 300.0, 0.0005);
    const double theory = analysis::rayleigh_afd(
        10.0 * std::log10(rho * rho), 0.0, fd);
    EXPECT_NEAR(s.afd_s, theory, 0.15 * theory)
        << "rho=" << rho << " afd=" << s.afd_s << " theory=" << theory;
  }
}

}  // namespace
}  // namespace wdc
