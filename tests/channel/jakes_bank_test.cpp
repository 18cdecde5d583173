/// The fader bank's bit-identity contract: the one-lane path and every
/// block-kernel variant the host supports (baseline, AVX2, AVX-512) must
/// reproduce the per-link reference loop (JakesPerLink) bit for bit — memcmp,
/// not a tolerance — for any bank size, lane position and time.
#include "channel/jakes_bank.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "jakes_oracle.hpp"

namespace wdc {
namespace {

constexpr std::size_t kLanes = JakesBank::kLanes;

const char* name(JakesBank::Isa isa) {
  switch (isa) {
    case JakesBank::Isa::kBaseline: return "baseline";
    case JakesBank::Isa::kAvx2: return "avx2";
    case JakesBank::Isa::kAvx512: return "avx512";
  }
  return "?";
}

std::vector<JakesBank::Isa> host_variants() {
  std::vector<JakesBank::Isa> out;
  for (const auto isa : {JakesBank::Isa::kBaseline, JakesBank::Isa::kAvx2,
                         JakesBank::Isa::kAvx512})
    if (JakesBank::supported(isa)) out.push_back(isa);
  return out;
}

/// A bank of `n` links and the per-link references built from the same
/// per-link streams.
struct Twin {
  Twin(std::size_t n, double doppler_hz, unsigned oscillators)
      : bank(doppler_hz, oscillators) {
    Rng chain_bank(n), chain_ref(n);
    for (std::size_t c = 0; c < n; ++c) {
      Rng a = chain_bank.split();
      bank.add(a);
      Rng b = chain_ref.split();
      refs.emplace_back(doppler_hz, b, oscillators);
    }
  }
  JakesBank bank;
  std::vector<JakesPerLink> refs;
};

const double kTimes[] = {0.0,    1e-3,   0.013,  2.5,      17.0625,
                         731.25, 4096.1, 9999.99, 65536.5, 1e5};

TEST(JakesBank, BaselineAlwaysSupported) {
  EXPECT_TRUE(JakesBank::supported(JakesBank::Isa::kBaseline));
  EXPECT_TRUE(JakesBank::supported(JakesBank::host_isa()));
}

TEST(JakesBank, AddDrawsLikeThePerLinkFader) {
  // 3 uniforms per oscillator, so everything seeded after a link (the
  // shadowing split, the next client's link) sees the same stream.
  Rng r1(77), r2(77);
  JakesBank bank(12.0, 16);
  bank.add(r1);
  const JakesPerLink ref(12.0, r2, 16);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r1.next(), r2.next());
  EXPECT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank.blocks(), 1u);
}

TEST(JakesBank, OneLanePathMatchesPerLinkOracleBitForBit) {
  for (const std::size_t n : {1, 7, 8, 9, 1000}) {
    const Twin twin(n, 8.0, 16);
    for (const double t : kTimes) {
      std::vector<double> got(n), want(n);
      for (std::size_t c = 0; c < n; ++c) {
        got[c] = twin.bank.power_gain(c, t);
        want[c] = twin.refs[c].power_gain(t);
      }
      ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0)
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(JakesBank, EveryBlockVariantMatchesPerLinkOracleBitForBit) {
  for (const unsigned oscillators : {16u, 5u}) {
    for (const std::size_t n : {1, 7, 8, 9, 1000}) {
      const Twin twin(n, 20.0, oscillators);
      for (const auto isa : host_variants()) {
        for (const double t : kTimes) {
          std::vector<double> got(twin.bank.blocks() * kLanes);
          for (std::size_t b = 0; b < twin.bank.blocks(); ++b)
            twin.bank.block_gain(b, t, got.data() + b * kLanes, isa);
          std::vector<double> want(n);
          for (std::size_t c = 0; c < n; ++c)
            want[c] = twin.refs[c].power_gain(t);
          ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)),
                    0)
              << name(isa) << " n=" << n << " t=" << t
              << " oscillators=" << oscillators;
        }
      }
    }
  }
}

TEST(JakesBank, DispatchedKernelIsTheHostVariant) {
  const Twin twin(9, 8.0, 16);
  for (const double t : kTimes) {
    for (std::size_t b = 0; b < twin.bank.blocks(); ++b) {
      double a[kLanes], h[kLanes];
      twin.bank.block_gain(b, t, a);
      twin.bank.block_gain(b, t, h, JakesBank::host_isa());
      ASSERT_EQ(std::memcmp(a, h, sizeof a), 0) << "block " << b << " t=" << t;
    }
  }
}

TEST(JakesBank, UnsupportedVariantThrows) {
  const Twin twin(1, 8.0, 16);
  double g[kLanes];
  for (const auto isa : {JakesBank::Isa::kAvx2, JakesBank::Isa::kAvx512}) {
    if (!JakesBank::supported(isa)) {
      EXPECT_THROW(twin.bank.block_gain(0, 1.0, g, isa),
                   std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace wdc
