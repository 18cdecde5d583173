#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

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

/// Runs `sc` and checks its digest against `pinned`; with WDC_PRINT_GOLDEN
/// set it also prints a paste-ready table row.
void expect_pinned_digest(const Scenario& sc, std::uint64_t pinned) {
  const std::uint64_t actual = metrics_digest(run_scenario(sc));
  if (std::getenv("WDC_PRINT_GOLDEN") != nullptr) {
    std::printf("    {ProtocolKind::%s, 0x%016llxull},\n",
                enum_name(sc.protocol),
                static_cast<unsigned long long>(actual));
  }
  EXPECT_EQ(actual, pinned)
      << to_string(sc.protocol) << " metrics digest drifted: expected 0x"
      << std::hex << pinned << ", got 0x" << actual << std::dec
      << " — the simulation is no longer bit-identical at the pinned "
         "operating point (re-pin ONLY for intentional model changes)";
}

std::string protocol_name(const ::testing::TestParamInfo<GoldenEntry>& tpi) {
  return to_string(tpi.param.protocol);
}

class GoldenDigest : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(GoldenDigest, MatchesPinnedMetricsDigest) {
  expect_pinned_digest(golden_scenario(GetParam().protocol), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(AllProtocolsAndBaselines, GoldenDigest,
                         ::testing::ValuesIn(kGolden), protocol_name);

/// The golden operating point under the Zipf query model. Every client's
/// generator samples one popularity table shared by the whole Simulation;
/// these digests were pinned from a build in which each generator built its
/// own table, so they prove that sharing it changes no draw. TS is the plain
/// report-driven client; PIG also answers queries from piggybacked digests.
constexpr GoldenEntry kZipfGolden[] = {
    {ProtocolKind::kTs, 0x6e9dd06c4562852aull},
    {ProtocolKind::kPig, 0xb2b510d6c369823full},
};

class ZipfGoldenDigest : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(ZipfGoldenDigest, MatchesPinnedMetricsDigest) {
  Scenario sc = golden_scenario(GetParam().protocol);
  sc.query.model = QueryModel::kZipf;
  expect_pinned_digest(sc, GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(SharedPopularityTable, ZipfGoldenDigest,
                         ::testing::ValuesIn(kZipfGolden), protocol_name);

}  // namespace
}  // namespace wdc
