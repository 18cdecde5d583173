#include "phy/mcs.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace wdc {
namespace {

TEST(Mcs, BlerIsMonotoneDecreasingInSnr) {
  const Mcs m{"X", 10e3, 10.0, 1.0};
  double prev = 1.0;
  for (double snr = -10.0; snr <= 30.0; snr += 1.0) {
    const double b = m.bler(snr);
    EXPECT_LT(b, prev);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    prev = b;
  }
}

TEST(Mcs, BlerHalfAtGamma50) {
  const Mcs m{"X", 10e3, 12.0, 1.3};
  EXPECT_NEAR(m.bler(12.0), 0.5, 1e-12);
}

TEST(Mcs, SnrForBlerInvertsBler) {
  const Mcs m{"X", 10e3, 8.0, 1.1};
  for (const double target : {0.01, 0.1, 0.5, 0.9}) {
    EXPECT_NEAR(m.bler(m.snr_for_bler(target)), target, 1e-9);
  }
  EXPECT_THROW(m.snr_for_bler(0.0), std::invalid_argument);
  EXPECT_THROW(m.snr_for_bler(1.0), std::invalid_argument);
}

TEST(McsTable, EdgeTableShape) {
  const McsTable t = McsTable::edge(4);
  EXPECT_EQ(t.size(), 9u);
  EXPECT_EQ(t[0].name, "MCS-1");
  EXPECT_EQ(t[8].name, "MCS-9");
  EXPECT_NEAR(t[0].rate_bps, 8.8e3 * 4, 1);
  EXPECT_NEAR(t[8].rate_bps, 59.2e3 * 4, 1);
}

TEST(McsTable, TimeslotsScaleRates) {
  const McsTable t1 = McsTable::edge(1);
  const McsTable t8 = McsTable::edge(8);
  for (std::size_t i = 0; i < t1.size(); ++i)
    EXPECT_NEAR(t8[i].rate_bps, 8.0 * t1[i].rate_bps, 1e-6);
  EXPECT_THROW(McsTable::edge(0), std::invalid_argument);
}

TEST(McsTable, RejectsNonMonotoneTables) {
  EXPECT_THROW(McsTable({{"A", 20e3, 0.0, 1.0}, {"B", 10e3, 5.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(McsTable({{"A", 10e3, 5.0, 1.0}, {"B", 20e3, 0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(McsTable({}), std::invalid_argument);
}

TEST(McsTable, BestForIsMonotoneInSnr) {
  const McsTable t = McsTable::edge();
  std::size_t prev = 0;
  for (double snr = -10.0; snr <= 40.0; snr += 0.5) {
    const std::size_t i = t.best_for(snr, 0.1);
    EXPECT_GE(i, prev);
    prev = i;
  }
  EXPECT_EQ(prev, t.size() - 1);  // high SNR reaches the top scheme
}

TEST(McsTable, BestForFloorsAtZero) {
  const McsTable t = McsTable::edge();
  EXPECT_EQ(t.best_for(-30.0, 0.1), 0u);
}

TEST(McsTable, BestForRespectsTarget) {
  const McsTable t = McsTable::edge();
  for (const double snr : {5.0, 12.0, 20.0}) {
    const std::size_t i = t.best_for(snr, 0.1);
    EXPECT_LE(t[i].bler(snr), 0.1);
    if (i + 1 < t.size()) {
      EXPECT_GT(t[i + 1].bler(snr), 0.1);
    }
  }
}

TEST(McsTable, BestForMessageMoreConservativeForBigMessages) {
  const McsTable t = McsTable::edge();
  const double snr = 15.0;
  const std::size_t small = t.best_for_message(snr, 0.1, 400);
  const std::size_t big = t.best_for_message(snr, 0.1, 40000);
  EXPECT_LE(big, small);
}

TEST(McsTable, AirtimeScalesWithBitsAndRate) {
  McsTable t = McsTable::edge(4);
  t.set_preamble_s(0.0);
  EXPECT_NEAR(t.airtime_s(35200, 0), 1.0, 1e-9);  // 35.2 kb at 35.2 kb/s
  EXPECT_GT(t.airtime_s(1000, 0), t.airtime_s(1000, 8));
}

TEST(McsTable, PreambleAddsConstant) {
  McsTable t = McsTable::edge();
  t.set_preamble_s(0.01);
  EXPECT_NEAR(t.airtime_s(0, 0), 0.01, 1e-12);
}

TEST(McsTable, BlocksForRoundsUp) {
  McsTable t = McsTable::edge();
  t.set_block_bits(100);
  EXPECT_EQ(t.blocks_for(0), 1u);
  EXPECT_EQ(t.blocks_for(1), 1u);
  EXPECT_EQ(t.blocks_for(100), 1u);
  EXPECT_EQ(t.blocks_for(101), 2u);
  EXPECT_EQ(t.blocks_for(1000), 10u);
}

TEST(McsTable, DecodeProbComposesPerBlock) {
  McsTable t = McsTable::edge();
  t.set_block_bits(456);
  const double snr = 10.0;
  const double one = t.decode_prob(456, 2, snr);
  const double five = t.decode_prob(456 * 5, 2, snr);
  EXPECT_NEAR(five, std::pow(one, 5.0), 1e-12);
  EXPECT_GT(one, five);
}

TEST(McsTable, FrameOkIsThePerBlockPowerBitForBit) {
  // The MAC takes the scheme and block count once per frame and calls
  // frame_ok per listener; it must be exactly (1 − BLER)^blocks, the
  // decode_prob formula, so the golden digests cannot tell them apart.
  const McsTable t = McsTable::edge();
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (const Bits bits : {Bits{0}, Bits{456}, Bits{4000}, Bits{65536}}) {
      const double blocks = static_cast<double>(t.blocks_for(bits));
      for (double snr = -10.0; snr <= 35.0; snr += 0.37) {
        const double expect = std::pow(1.0 - t[i].bler(snr), blocks);
        EXPECT_EQ(t[i].frame_ok(snr, blocks), expect);
        EXPECT_EQ(t.decode_prob(bits, i, snr), expect);
      }
    }
  }
}

TEST(McsTable, DecodeProbHighAtHighSnr) {
  const McsTable t = McsTable::edge();
  EXPECT_GT(t.decode_prob(4560, 0, 30.0), 0.999);
  EXPECT_LT(t.decode_prob(4560, 8, 0.0), 0.001);
}

TEST(McsTable, Simple3IsValid) {
  const McsTable t = McsTable::simple3();
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.best_for(-10.0, 0.1), 0u);
  EXPECT_EQ(t.best_for(30.0, 0.1), 2u);
}

}  // namespace
}  // namespace wdc
