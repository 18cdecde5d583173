/// Incident-replay regression tier (ctest label `replay`): the checked-in
/// incident fixtures (fixtures/*.wdcsched) replayed across every protocol at
/// the shared golden operating point. A schedule replay consumes no
/// randomness, so each (fixture, protocol) digest is pinned exactly like the
/// golden tier — plus the invariants every incident must uphold:
///
///  * zero stale reads outside CBL (faults slow queries, never lie to them);
///  * the corruption canary: every byzantine frame the codec accepted is
///    counted, and the expectation is ZERO (the checksum catches 3-bit
///    damage — an acceptance here is a codec regression, not bad luck);
///  * recovery accounting closes (every crash recovers, every rejoin is
///    preceded by a disconnect, no scripted point goes unmatched);
///  * the replay is live: its digest differs from the fault-free pin.
///
/// Under -DWDC_FAULTS=OFF the tier skips (replay_inertness_test.cpp carries
/// the stripped build's proof obligation instead).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/digest.hpp"
#include "engine/simulation.hpp"
#include "faults/fault_injector.hpp"
#include "replay_golden_table.hpp"

namespace wdc {
namespace {

std::string fixture_path(const char* name) {
  return std::string(WDC_REPLAY_FIXTURE_DIR) + "/" + name;
}

#if WDC_FAULTS_ENABLED

struct ReplayCase {
  const char* fixture;     ///< file under fixtures/
  const char* table_name;  ///< identifier to print for WDC_PRINT_REPLAY
  const GoldenEntry* table;
  GoldenEntry expect;  ///< this protocol's pinned entry
};

// Print a case as its fixture and protocol: gtest's default byte dump of the
// pointers would put load addresses into the discovered test names.
void PrintTo(const ReplayCase& rc, std::ostream* os) {
  *os << rc.fixture << ' ' << to_string(rc.expect.protocol);
}

class ReplayFixture : public ::testing::TestWithParam<ReplayCase> {};

Metrics run_fixture(const ReplayCase& rc) {
  Scenario s = golden_scenario(rc.expect.protocol);
  s.faults.enabled = true;
  s.faults.schedule = FaultSchedule::load_file(fixture_path(rc.fixture));
  return run_scenario(s);
}

TEST_P(ReplayFixture, DigestIsPinnedAndInvariantsHold) {
  const ReplayCase& rc = GetParam();
  const Metrics m = run_fixture(rc);
  const std::uint64_t actual = metrics_digest(m);
  if (std::getenv("WDC_PRINT_REPLAY") != nullptr) {
    std::printf("%s: {ProtocolKind::%s, 0x%016llxull},\n", rc.table_name,
                enum_name(rc.expect.protocol),
                static_cast<unsigned long long>(actual));
  }
  EXPECT_EQ(actual, rc.expect.digest)
      << rc.fixture << " no longer replays bit-identically for "
      << to_string(rc.expect.protocol)
      << " (re-pin with WDC_PRINT_REPLAY=1 ONLY for intentional changes)";

  // The incident must actually bite: a replay whose digest equals the
  // fault-free pin means the schedule was silently ignored.
  std::uint64_t clean = 0;
  for (const GoldenEntry& g : kGolden)
    if (g.protocol == rc.expect.protocol) clean = g.digest;
  EXPECT_NE(actual, clean)
      << rc.fixture << " left " << to_string(rc.expect.protocol)
      << " bit-identical to the fault-free run — replay hooks are dead";

  // Faults may slow queries arbitrarily but never lie to them.
  if (rc.expect.protocol != ProtocolKind::kCbl) {
    EXPECT_EQ(m.stale_serves, 0u);
  }

  // Corruption canary: the codec must catch every damaged frame.
  EXPECT_EQ(m.fault_corrupt_accepted, 0u)
      << "a byzantine report frame decoded successfully — checksum regression";

  // Recovery accounting closes.
  EXPECT_EQ(m.server_recoveries, m.server_crashes);
  EXPECT_LE(m.recoveries, m.churn_rejoins);
  EXPECT_LE(m.churn_rejoins, m.churn_events);

  // Window-only fixtures: no scripted point can go unmatched.
  EXPECT_EQ(m.schedule_misses, 0u);
}

TEST(ReplayFixtureDeterminism, SameScheduleSameBits) {
  ReplayCase rc{"blackout.wdcsched", "blackout", kReplayBlackout,
                kReplayBlackout[0]};
  const Metrics a = run_fixture(rc);
  const Metrics b = run_fixture(rc);
  EXPECT_EQ(metrics_digest(a), metrics_digest(b));
  EXPECT_EQ(a.fault_ir_drops, b.fault_ir_drops);
  EXPECT_EQ(a.fault_corrupt_rejected, b.fault_corrupt_rejected);
  EXPECT_EQ(a.churn_events, b.churn_events);
}

TEST(ReplayFixtureCrash, ServerCrashSuppressesAndRecovers) {
  Scenario s = golden_scenario(ProtocolKind::kTs);
  s.faults.enabled = true;
  s.faults.schedule =
      FaultSchedule::load_file(fixture_path("server_crash.wdcsched"));
  const Metrics m = run_scenario(s);
  EXPECT_EQ(m.server_crashes, 1u);
  EXPECT_EQ(m.server_recoveries, 1u);
  // 50 s down at L = 20 s: at least two periodic reports were swallowed.
  EXPECT_GE(m.crash_suppressed, 2u);
  EXPECT_EQ(m.stale_serves, 0u);
}

std::vector<ReplayCase> all_cases() {
  std::vector<ReplayCase> cases;
  constexpr std::size_t n = sizeof(kGolden) / sizeof(kGolden[0]);
  for (std::size_t i = 0; i < n; ++i) {
    cases.push_back({"blackout.wdcsched", "blackout", kReplayBlackout,
                     kReplayBlackout[i]});
    cases.push_back({"server_crash.wdcsched", "server_crash",
                     kReplayServerCrash, kReplayServerCrash[i]});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllFixturesAllProtocols, ReplayFixture, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<ReplayCase>& tpi) {
      return std::string(tpi.param.table_name) + "_" +
             to_string(tpi.param.expect.protocol);
    });

#else  // !WDC_FAULTS_ENABLED

TEST(ReplayFixture, SkippedWhenFaultLayerCompiledOut) {
  GTEST_SKIP() << "built with -DWDC_FAULTS=OFF";
}

#endif  // WDC_FAULTS_ENABLED

}  // namespace
}  // namespace wdc
