#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "engine/digest.hpp"
#include "engine/simulation.hpp"
#include "faults/fault_injector.hpp"
#include "scale_scenario.hpp"

/// Fault accounting under sharding (ctest label `scale`).
///
/// Each cell owns its own FaultInjector over its local client span, so the
/// `-L faults` tier's accounting identities must survive the per-cell split
/// and ordered re-merge: the consistency oracle (zero stale serves, CBL
/// exempt), closed hit/miss accounting, churn lifecycle ordering, and the
/// loss ledgers. Faulted sharded runs must also stay deterministic and
/// executor/thread-invariant — faults are part of the scenario, not of the
/// execution schedule.

namespace wdc {
namespace {

#if WDC_FAULTS_ENABLED

/// One fixed lossy schedule (loss + drops + churn all active) so failures
/// reproduce without a seed hunt.
FaultConfig lossy_fault_config() {
  FaultConfig f;
  f.enabled = true;
  f.loss_mode = FaultLossMode::kBernoulli;
  f.ir_loss = 0.3;
  f.bcast_loss = 0.1;
  f.uplink_drop = 0.2;
  f.backoff_mult = 2.0;
  f.backoff_cap_s = 60.0;
  f.churn_rate = 1.0 / 150.0;
  f.churn_mean_down_s = 20.0;
  f.rejoin = RejoinPolicy::kSuspect;
  f.validate();
  return f;
}

Scenario faulted_scale_scenario(ProtocolKind p) {
  Scenario s = scale_scenario(p);
  s.faults = lossy_fault_config();
  s.shard_threads = 2;
  return s;
}

void check_invariants(const Scenario& s, const Metrics& m) {
  // The consistency oracle holds per cell, hence over the merged counters:
  // CBL is exempt by design (leases bound, not eliminate, staleness).
  if (s.protocol != ProtocolKind::kCbl) {
    EXPECT_EQ(m.stale_serves, 0u);
  }

  EXPECT_EQ(m.hits + m.misses, m.answered);
  EXPECT_LE(m.answered + m.dropped_queries, m.queries);

  for (const double r : {m.hit_ratio, m.report_loss_rate, m.mac_busy_frac,
                         m.radio_on_frac}) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }

  EXPECT_LE(m.recoveries, m.churn_rejoins);
  EXPECT_LE(m.churn_rejoins, m.churn_events);
  EXPECT_GE(m.mean_recovery_s, 0.0);
  EXPECT_TRUE(std::isfinite(m.mean_recovery_s));
  if (m.recoveries == 0) {
    EXPECT_EQ(m.mean_recovery_s, 0.0);
  }
}

class ShardFaults : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(ShardFaults, AccountingIdentitiesHoldUnderShardedExecution) {
  const Scenario s = faulted_scale_scenario(GetParam().protocol);
  SCOPED_TRACE(to_string(s.protocol));
  check_invariants(s, run_scenario(s));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndBaselines, ShardFaults,
    ::testing::ValuesIn(scale_entries()),
    [](const ::testing::TestParamInfo<GoldenEntry>& tpi) {
      return to_string(tpi.param.protocol);
    });

TEST(ShardFaults, FaultedShardedRunsAreDeterministic) {
  const Scenario s = faulted_scale_scenario(ProtocolKind::kTs);
  const Metrics a = run_scenario(s);
  const Metrics b = run_scenario(s);
  EXPECT_EQ(metrics_digest(a), metrics_digest(b))
      << "same scenario + same fault schedule must be bit-identical under "
         "sharded execution";
  EXPECT_EQ(a.fault_ir_drops, b.fault_ir_drops);
  EXPECT_EQ(a.churn_events, b.churn_events);
  EXPECT_EQ(a.recoveries, b.recoveries);
}

TEST(ShardFaults, FaultedDigestIndependentOfExecutorsAndThreads) {
  Scenario s = faulted_scale_scenario(ProtocolKind::kLair);
  s.shard_threads = 1;
  const std::uint64_t ref = metrics_digest(run_scenario(s));
  for (const std::uint32_t threads : {2u, 4u}) {
    s.shard_threads = threads;
    EXPECT_EQ(metrics_digest(run_scenario(s)), ref)
        << "faulted digest changed at shard_threads=" << threads;
  }
}

TEST(ShardFaults, ChurnActivityActuallyExercisedAtTheScalePoint) {
  // Guard against the tier silently degenerating: the fixed schedule must
  // inject real churn and real drops, otherwise the identities above are
  // vacuous.
  const Metrics m = run_scenario(faulted_scale_scenario(ProtocolKind::kTs));
  EXPECT_GT(m.churn_events, 0u);
  EXPECT_GT(m.fault_ir_drops, 0u);
}

#else  // !WDC_FAULTS_ENABLED

TEST(ShardFaults, SkippedWhenFaultLayerCompiledOut) {
  GTEST_SKIP() << "built with -DWDC_FAULTS=OFF";
}

#endif  // WDC_FAULTS_ENABLED

}  // namespace
}  // namespace wdc
