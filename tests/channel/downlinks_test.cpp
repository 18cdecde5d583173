/// The downlink link set: each fading model's SNR, the masked pass against
/// the per-link references, and the stateful models' call sequences against
/// sequences recorded from the per-link classes Downlinks replaced.
#include "channel/downlinks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "downlink_vectors.hpp"
#include "jakes_oracle.hpp"

namespace wdc {
namespace {

FadingConfig model(FadingModel m) {
  FadingConfig cfg;
  cfg.model = m;
  return cfg;
}

TEST(FixedSnr, Constant) {
  Downlinks d(model(FadingModel::kNone));
  d.add(12.5, Rng(1));
  EXPECT_DOUBLE_EQ(d.snr_db(0, 0.0), 12.5);
  EXPECT_DOUBLE_EQ(d.snr_db(0, 100.0), 12.5);
}

TEST(RayleighSnr, LongRunLinearMeanMatches) {
  FadingConfig cfg = model(FadingModel::kRayleigh);
  cfg.doppler_hz = 15.0;
  Downlinks d(cfg);
  d.add(18.0, Rng(1));
  double acc = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i)
    acc += std::pow(10.0, d.snr_db(0, i * 0.091) / 10.0);
  EXPECT_NEAR(10.0 * std::log10(acc / n), 18.0, 0.6);
}

TEST(FadingModelParsing, RoundTrips) {
  for (const auto m : {FadingModel::kNone, FadingModel::kRayleigh,
                       FadingModel::kFsmc, FadingModel::kGilbertElliott})
    EXPECT_EQ(fading_model_from_string(to_string(m)), m);
  EXPECT_THROW(fading_model_from_string("bogus"), std::invalid_argument);
}

TEST(Downlinks, BuildsEveryModel) {
  for (const auto m : {FadingModel::kNone, FadingModel::kRayleigh,
                       FadingModel::kFsmc, FadingModel::kGilbertElliott}) {
    Downlinks d(model(m));
    d.add(15.0, Rng(2));
    d.add(9.0, Rng(3));
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.padded_size(), JakesBank::kLanes);
    EXPECT_TRUE(std::isfinite(d.snr_db(1, 1.0))) << to_string(m);
  }
}

TEST(Downlinks, NoneModelIgnoresFadingParams) {
  FadingConfig cfg = model(FadingModel::kNone);
  cfg.doppler_hz = -1.0;  // never read by the none model
  cfg.shadow_sigma_db = 8.0;
  Downlinks d(cfg);
  d.add(7.0, Rng(3));
  EXPECT_DOUBLE_EQ(d.snr_db(0, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(d.snr_db(0, 9.0), 7.0);
}

TEST(GilbertElliottSnr, MeanIsStationaryMix) {
  FadingConfig cfg = model(FadingModel::kGilbertElliott);
  cfg.ge_mean_good_s = 1.0;
  cfg.ge_mean_bad_s = 1.0;
  cfg.ge_bad_snr_db = -10.0;
  Downlinks d(cfg);
  d.add(20.0, Rng(4));
  // A 50/50 mix of 20 dB (100x) and −10 dB (0.1x): the time-averaged linear
  // SNR converges to 50.05 ⇒ ≈ 17 dB (10^4 sojourn pairs).
  double acc = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i)
    acc += std::pow(10.0, d.snr_db(0, i * 0.05) / 10.0);
  EXPECT_NEAR(10.0 * std::log10(acc / n), 10.0 * std::log10(50.05), 0.2);
}

TEST(RayleighSnr, ShadowingShiftsButKeepsFiniteness) {
  FadingConfig cfg = model(FadingModel::kRayleigh);
  cfg.doppler_hz = 5.0;
  cfg.shadow_sigma_db = 8.0;
  cfg.shadow_decorr_s = 50.0;
  Downlinks d(cfg);
  d.add(10.0, Rng(5));
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(std::isfinite(d.snr_db(0, i * 0.5)));
}

// ---------------------------------------------------------------------------
// The masked pass, bit for bit.

/// Zero-padded mask of `n` links selecting those `pick` accepts.
template <typename Pick>
std::vector<std::uint8_t> mask_of(const Downlinks& d, Pick pick) {
  std::vector<std::uint8_t> m(d.padded_size(), 0);
  for (std::size_t c = 0; c < d.size(); ++c) m[c] = pick(c) ? 1 : 0;
  return m;
}

TEST(Downlinks, MaskedPassMatchesPerLinkOracle) {
  // Rayleigh without shadowing is pure: every selected link's pass output
  // must equal mean + the per-link oracle's dB gain to the bit, and every
  // unselected entry must keep its sentinel.
  constexpr double kSentinel = -777.0;
  for (const std::size_t n : {1, 7, 8, 9, 1000}) {
    const FadingConfig cfg = model(FadingModel::kRayleigh);
    Downlinks d(cfg);
    std::vector<JakesPerLink> oracle;
    std::vector<double> mean;
    Rng chain_a(17), chain_b(17);
    for (std::size_t c = 0; c < n; ++c) {
      mean.push_back(3.0 + 0.25 * static_cast<double>(c % 40));
      d.add(mean.back(), chain_a.split());
      Rng r = chain_b.split();
      oracle.emplace_back(cfg.doppler_hz, r, Downlinks::kOscillators);
    }
    const std::vector<std::vector<std::uint8_t>> masks = {
        mask_of(d, [](std::size_t) { return false; }),
        mask_of(d, [](std::size_t) { return true; }),
        mask_of(d, [](std::size_t c) { return c % 7 == 3; }),
        mask_of(d, [n](std::size_t c) { return c + 1 == n; }),
    };
    for (const double t : {0.0, 0.013, 2.5, 731.25, 9999.99, 1e5}) {
      for (std::size_t m = 0; m < masks.size(); ++m) {
        std::vector<double> out(d.padded_size(), kSentinel);
        std::vector<double> want(d.padded_size(), kSentinel);
        std::size_t selected = 0;
        for (std::size_t c = 0; c < n; ++c) {
          if (masks[m][c] == 0) continue;
          want[c] = mean[c] + 0.0 + gain_db(oracle[c].power_gain(t));
          ++selected;
        }
        EXPECT_EQ(d.snr_db(masks[m], t, out.data()), selected);
        ASSERT_EQ(std::memcmp(out.data(), want.data(),
                              out.size() * sizeof(double)),
                  0)
            << "n=" << n << " mask=" << m << " t=" << t;
      }
    }
  }
}

TEST(Downlinks, PassSkipsBlocksWithoutListeners) {
  if (!WDC_PERF_COUNTERS_ENABLED) GTEST_SKIP() << "perf counters compiled out";
  Downlinks d(model(FadingModel::kRayleigh));
  for (int c = 0; c < 20; ++c) d.add(10.0, Rng(static_cast<std::uint64_t>(c)));
  std::vector<double> out(d.padded_size());
  // Links 2 and 17: blocks 0 and 2 are computed (16 lanes), block 1 skipped.
  auto m = mask_of(d, [](std::size_t c) { return c == 2 || c == 17; });
  d.snr_db(m, 1.0, out.data());
  EXPECT_EQ(d.counters().links_evaluated, 2u);
  EXPECT_EQ(d.counters().padded_lanes, 14u);
  d.snr_db(mask_of(d, [](std::size_t) { return false; }), 2.0, out.data());
  EXPECT_EQ(d.counters().links_evaluated, 2u);
  EXPECT_EQ(d.counters().padded_lanes, 14u);
}

// ---------------------------------------------------------------------------
// Stateful models against the recorded per-link sequences.

/// Replays the recording's query schedule (downlink_vectors.hpp): the
/// delayed-CSI query goes one link at a time, the decode-time query through
/// the masked pass, and each link's answers must match its recorded row bit
/// for bit.
void expect_recorded(const FadingConfig& cfg,
                     const double (&rows)[downlink_vectors::kLinks]
                                         [2 * downlink_vectors::kSteps]) {
  using namespace downlink_vectors;
  Rng chain(2024);
  Downlinks d(cfg);
  for (int c = 0; c < kLinks; ++c) d.add(5.0 + 3.0 * c, chain.split());
  std::vector<double> out(d.padded_size());
  std::vector<std::vector<double>> got(kLinks);
  for (int k = 0; k < kSteps; ++k) {
    const double t = step_time(k);
    for (int c = 0; c < kLinks; ++c)
      if (listens(c, k))
        got[c].push_back(d.snr_db(static_cast<std::size_t>(c),
                                  std::max(0.0, t - kCsiDelay)));
    const auto mask = mask_of(
        d, [k](std::size_t c) { return listens(static_cast<int>(c), k); });
    d.snr_db(mask, t, out.data());
    for (int c = 0; c < kLinks; ++c)
      if (listens(c, k)) got[c].push_back(out[static_cast<std::size_t>(c)]);
  }
  for (int c = 0; c < kLinks; ++c) {
    ASSERT_LE(got[c].size(), std::size_t{2 * kSteps});
    EXPECT_EQ(std::memcmp(got[c].data(), rows[c],
                          got[c].size() * sizeof(double)),
              0)
        << to_string(cfg.model) << " link " << c;
  }
}

TEST(Downlinks, FsmcMatchesRecordedSequences) {
  expect_recorded(model(FadingModel::kFsmc), downlink_vectors::kFsmcSnr);
}

TEST(Downlinks, GilbertElliottMatchesRecordedSequences) {
  expect_recorded(model(FadingModel::kGilbertElliott),
                  downlink_vectors::kGeSnr);
}

TEST(Downlinks, ShadowedRayleighMatchesRecordedSequences) {
  FadingConfig cfg = model(FadingModel::kRayleigh);
  cfg.shadow_sigma_db = 6.0;
  expect_recorded(cfg, downlink_vectors::kShadowedRayleighSnr);
  cfg.shadow_decorr_s = 0.5;
  expect_recorded(cfg, downlink_vectors::kFastShadowRayleighSnr);
}

}  // namespace
}  // namespace wdc
