#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/digest.hpp"
#include "engine/replication.hpp"
#include "engine/sharded.hpp"
#include "engine/simulation.hpp"
#include "scale_scenario.hpp"
#include "util/config.hpp"

/// Shard-invariance proofs (ctest label `scale`).
///
/// The sharded core's determinism contract: results are a pure function of
/// (scenario, seed, shard map) — `shard_threads` (OS threads, cell c →
/// thread c % shard_threads) is a pure execution knob. Every protocol runs
/// the scaled 8-cell operating point on {1,2,4,8} threads and must digest
/// bit-identically; and at shard_cells=1 the sharded engine
/// must reproduce the 11 pinned golden digests of the legacy serial engine
/// exactly (golden_table.hpp).

namespace wdc {
namespace {

std::uint64_t digest_with(ProtocolKind p, std::uint32_t threads) {
  Scenario s = scale_scenario(p);
  s.shard_threads = threads;
  return metrics_digest(run_scenario(s));
}

class ShardInvariance : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(ShardInvariance, DigestIndependentOfExecutorsAndThreads) {
  const ProtocolKind p = GetParam().protocol;
  const std::uint64_t ref = digest_with(p, /*threads=*/1);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(digest_with(p, threads), ref)
        << to_string(p) << " digest changed at shard_threads=" << threads
        << " — the thread placement leaked into the result";
  }
}

/// K=1 bit-identity: the sharded engine at one cell IS the legacy serial
/// simulation — same seed chain, same event order, same pinned digest. This
/// also proves epoch-stepped run_until is bit-identical to one-shot run().
TEST_P(ShardInvariance, SingleCellReproducesGoldenPinBitIdentically) {
  const GoldenEntry& expect = GetParam();
  Scenario s = golden_scenario(expect.protocol);  // shard_cells = 1
  ShardedSimulation sim(s);
  EXPECT_EQ(metrics_digest(sim.run()), expect.digest)
      << to_string(expect.protocol)
      << " sharded engine at shard_cells=1 drifted from the golden pin";
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndBaselines, ShardInvariance,
    ::testing::ValuesIn(scale_entries()),
    [](const ::testing::TestParamInfo<GoldenEntry>& tpi) {
      return to_string(tpi.param.protocol);
    });

TEST(ShardDispatch, RunScenarioRoutesShardedScenariosThroughShardedCore) {
  Scenario s = scale_scenario(ProtocolKind::kTs);
  s.shard_threads = 4;
  ASSERT_TRUE(s.sharded());
  const Metrics via_dispatch = run_scenario(s);
  ShardedSimulation sim(s);
  EXPECT_EQ(metrics_digest(sim.run()), metrics_digest(via_dispatch));
}

TEST(ShardDispatch, ScenarioKeysParseAndValidate) {
  Config c;
  c.set("shard_cells", "8");
  c.set("shard_threads", "2");
  c.set("shard_lag", "2");
  const Scenario s = Scenario::from_config(c);
  EXPECT_EQ(s.shard_cells, 8u);
  EXPECT_EQ(s.shard_threads, 2u);
  EXPECT_EQ(s.shard_lag, 2u);
  EXPECT_TRUE(s.sharded());
  EXPECT_TRUE(c.unused_keys().empty());

  Scenario bad = s;
  bad.shard_cells = bad.num_clients + 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = s;
  bad.shard_lag = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  // The executor layer is gone: its old key is now an unknown key.
  Config old;
  old.set("shards", "2");
  (void)Scenario::from_config(old);
  EXPECT_EQ(old.unused_keys(), std::vector<std::string>{"shards"});
  EXPECT_THROW(old.require_all_used(), std::runtime_error);
}

/// The bounded lag itself is execution-only: any lag >= 1 admits the same
/// per-cell event order, so widening the window must not move the digest.
TEST(ShardDispatch, LagWindowIsExecutionOnly) {
  Scenario s = scale_scenario(ProtocolKind::kUir);
  s.shard_threads = 2;
  const std::uint64_t ref = metrics_digest(run_scenario(s));
  s.shard_lag = 3;
  EXPECT_EQ(metrics_digest(run_scenario(s)), ref);
}

/// Replication layer inherits the sharded path through run_scenario: per-rep
/// digests stay independent of the replication pool size with shard threads
/// nested inside each worker.
TEST(ShardDispatch, ReplicationThreadIndependenceWithNestedShardThreads) {
  Scenario s = scale_scenario(ProtocolKind::kTs);
  s.shard_threads = 2;
  const auto one = run_replications(s, /*reps=*/2, /*threads=*/1);
  const auto many = run_replications(s, /*reps=*/2, /*threads=*/2);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    EXPECT_EQ(metrics_digest(one[i]), metrics_digest(many[i]))
        << "replication " << i << " depends on the worker pool size";
}

}  // namespace
}  // namespace wdc
