#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "engine/digest.hpp"
#include "engine/simulation.hpp"
#include "golden_table.hpp"

/// Golden-digest regression tier (ctest label `golden`).
///
/// Every protocol runs once at a small fixed operating point; the FNV-1a
/// digest of its Metrics record must match the committed expectation. The
/// digests were pinned before the event-kernel hot-path overhaul, so passing
/// this tier proves a refactor is bit-identical — the same guarantee
/// tools/wdc_audit gives, but cheap enough for every ctest invocation.
///
/// The digest covers the model-visible metrics only; kernel perf counters and
/// fault/recovery counters are deliberately excluded (see engine/digest.cpp)
/// so instrumentation builds and plain builds agree.
///
/// The operating point and the pinned table live in golden_table.hpp, shared
/// with the fault tier's inertness proofs (tests/faults).

namespace wdc {
namespace {

class GoldenDigest : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(GoldenDigest, MatchesPinnedMetricsDigest) {
  const GoldenEntry& expect = GetParam();
  const Metrics m = run_scenario(golden_scenario(expect.protocol));
  const std::uint64_t actual = metrics_digest(m);
  if (std::getenv("WDC_PRINT_GOLDEN") != nullptr) {
    std::printf("    {ProtocolKind::%s, 0x%016llxull},\n",
                enum_name(expect.protocol),
                static_cast<unsigned long long>(actual));
  }
  EXPECT_EQ(actual, expect.digest)
      << to_string(expect.protocol) << " metrics digest drifted: expected 0x"
      << std::hex << expect.digest << ", got 0x" << actual << std::dec
      << " — the simulation is no longer bit-identical at the pinned "
         "operating point (re-pin ONLY for intentional model changes)";
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndBaselines, GoldenDigest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenEntry>& tpi) {
      return to_string(tpi.param.protocol);
    });

}  // namespace
}  // namespace wdc
