#include "phy/amc.hpp"

#include <gtest/gtest.h>

namespace wdc {
namespace {

class AmcTest : public ::testing::Test {
 protected:
  McsTable table_ = McsTable::edge();
};

TEST_F(AmcTest, FixedModeAlwaysReturnsConfigured) {
  AmcConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_mcs = 3;
  AmcController amc(table_, cfg);
  EXPECT_EQ(amc.select_from_snr(-20.0), 3u);
  EXPECT_EQ(amc.select_from_snr(40.0), 3u);
}

TEST_F(AmcTest, FixedModeClampsOutOfRange) {
  AmcConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_mcs = 99;
  AmcController amc(table_, cfg);
  EXPECT_EQ(amc.select_from_snr(10.0), table_.size() - 1);
}

TEST_F(AmcTest, AdaptiveTracksSnr) {
  AmcConfig cfg;
  cfg.hysteresis_db = 0.0;
  AmcController amc(table_, cfg);
  const std::size_t low = amc.select_from_snr(2.0);
  const std::size_t high = amc.select_from_snr(30.0);
  EXPECT_LT(low, high);
  EXPECT_EQ(high, table_.size() - 1);
}

TEST_F(AmcTest, DownSwitchIsImmediate) {
  AmcConfig cfg;
  cfg.hysteresis_db = 2.0;
  AmcController amc(table_, cfg);
  amc.select_from_snr(30.0);
  EXPECT_EQ(amc.last_choice(), table_.size() - 1);
  const std::size_t after_fade = amc.select_from_snr(0.0);
  EXPECT_LE(after_fade, 1u);
}

TEST_F(AmcTest, UpSwitchRequiresHysteresisMargin) {
  AmcConfig cfg;
  cfg.hysteresis_db = 3.0;
  cfg.target_bler = 0.1;
  AmcController amc(table_, cfg);
  amc.select_from_snr(0.0);  // settle low
  const std::size_t settled = amc.last_choice();
  // An SNR just barely qualifying for the next scheme must NOT trigger an
  // up-switch (margin not cleared)…
  const double barely = table_[settled + 1].snr_for_bler(0.1) + 0.5;
  EXPECT_EQ(amc.select_from_snr(barely), settled);
  // …but clearing the margin does.
  const double cleared = table_[settled + 1].snr_for_bler(0.1) + 3.5;
  EXPECT_GT(amc.select_from_snr(cleared), settled);
}

TEST_F(AmcTest, BackoffShiftsSelectionDown) {
  AmcConfig plain;
  plain.hysteresis_db = 0.0;
  AmcConfig off;
  off.hysteresis_db = 0.0;
  off.backoff_db = 6.0;
  AmcController a(table_, plain), b(table_, off);
  EXPECT_GT(a.select_from_snr(15.0), b.select_from_snr(15.0));
}

TEST_F(AmcTest, MessageSizeLowersChoice) {
  AmcConfig cfg;
  cfg.hysteresis_db = 0.0;
  AmcController amc(table_, cfg);
  const std::size_t small = amc.select_from_snr(15.0, 456);
  AmcController amc2(table_, cfg);
  const std::size_t big = amc2.select_from_snr(15.0, 456 * 40);
  EXPECT_LE(big, small);
}

}  // namespace
}  // namespace wdc
