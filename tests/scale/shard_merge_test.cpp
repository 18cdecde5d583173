#include <gtest/gtest.h>

#include <cstdint>

#include "engine/digest.hpp"
#include "engine/run_stats.hpp"
#include "engine/sharded.hpp"
#include "engine/simulation.hpp"
#include "scale_scenario.hpp"

/// Ordered metrics-merge proofs (ctest label `scale`).
///
/// The collector folds per-cell RunStats in fixed cell order 0..C-1 — that
/// ordering (not commutativity of float reductions) is what makes the merged
/// digest permutation-proof: any executor/thread schedule produces the same
/// fold. These tests pin the fold's building blocks: merging into an empty
/// snapshot is a bit-exact copy (the C=1 identity), the sharded result equals
/// a manual ordered fold over the white-box cells, and epoch-stepped
/// execution is bit-identical to one-shot execution.

namespace wdc {
namespace {

TEST(ShardMerge, MergeIntoEmptySnapshotIsBitExact) {
  Simulation sim(golden_scenario(ProtocolKind::kTs));
  const Metrics direct = sim.run();
  RunStats total;
  total.merge(sim.run_stats());
  const Metrics folded = finalize_run(sim.scenario(), total);
  EXPECT_EQ(metrics_digest(folded), metrics_digest(direct))
      << "one-cell fold must reproduce the un-merged metrics bit-for-bit";
}

TEST(ShardMerge, ShardedResultEqualsManualOrderedFold) {
  Scenario s = scale_scenario(ProtocolKind::kHyb);
  s.shard_threads = 2;
  ShardedSimulation sim(s);
  const Metrics merged = sim.run();

  RunStats total;
  for (std::uint32_t c = 0; c < sim.num_cells(); ++c)
    total.merge(sim.cell(c).run_stats());
  EXPECT_EQ(metrics_digest(finalize_run(s, total)), metrics_digest(merged));
}

TEST(ShardMerge, CountersAggregateExactlyAcrossCells) {
  Scenario s = scale_scenario(ProtocolKind::kTs);
  s.shard_threads = 2;
  ShardedSimulation sim(s);
  const Metrics merged = sim.run();

  std::uint64_t queries = 0, answered = 0, uplink = 0, clients = 0;
  for (std::uint32_t c = 0; c < sim.num_cells(); ++c) {
    const RunStats rs = sim.cell(c).run_stats();
    queries += rs.sink.queries();
    answered += rs.sink.answered();
    uplink += rs.uplink_requests;
    clients += rs.clients;
  }
  EXPECT_EQ(merged.queries, queries);
  EXPECT_EQ(merged.answered, answered);
  EXPECT_EQ(merged.uplink_requests, uplink);
  EXPECT_EQ(clients, s.num_clients);
  EXPECT_EQ(merged.hits + merged.misses, merged.answered);
}

TEST(ShardMerge, CellSpansPartitionThePopulationContiguously) {
  for (const std::uint32_t cells : {1u, 2u, 4u, 8u, 7u}) {
    for (const std::uint32_t clients : {8u, 96u, 97u, 1000u}) {
      if (cells > clients) continue;
      std::uint32_t next = 0;
      for (std::uint32_t c = 0; c < cells; ++c) {
        const ClientSpan span = ShardedSimulation::cell_span(c, cells, clients);
        EXPECT_EQ(span.begin, next) << cells << " cells, " << clients
                                    << " clients, cell " << c;
        EXPECT_GE(span.size(), clients / cells);
        EXPECT_LE(span.size(), clients / cells + 1);
        next = span.end;
      }
      EXPECT_EQ(next, clients);
    }
  }
}

/// Why C=1 golden identity holds: Simulator::run_until is inclusive of its
/// limit, so stepping the legacy engine on the sharded core's epoch grid
/// executes the identical event sequence as one uninterrupted run.
TEST(ShardMerge, EpochSteppedRunIsBitIdenticalToOneShotRun) {
  const Scenario s = golden_scenario(ProtocolKind::kUir);
  Simulation stepped(s);
  const double epoch_s = s.proto.ir_interval_s;
  for (double t = epoch_s; t < s.sim_time_s; t += epoch_s)
    stepped.run_until(t);
  stepped.run_until(s.sim_time_s);
  Simulation oneshot(s);
  const Metrics reference = oneshot.run();
  EXPECT_EQ(metrics_digest(stepped.collect()), metrics_digest(reference));
}

/// Per-client randomness is pinned to the GLOBAL client index: the cell that
/// owns a client derives the same streams the legacy full-span construction
/// would have given it (out-of-span draws are burned in legacy order).
TEST(ShardMerge, ClientSpansPreserveGlobalRngStreams) {
  Scenario s = scale_scenario(ProtocolKind::kTs);
  s.shard_cells = 1;  // construct single cells directly
  const ClientSpan span = ShardedSimulation::cell_span(2, 4, s.num_clients);
  Simulation cell(s, span);
  EXPECT_EQ(cell.num_clients(), span.size());
  EXPECT_EQ(cell.span().begin, span.begin);
  EXPECT_EQ(cell.global_client_id(0), span.begin);
  // Same scenario, same span, fresh construction: the derived streams are a
  // pure function of (seed, global index), so a rebuilt cell runs identically.
  Simulation cell2(s, span);
  cell.run_until(60.0);
  cell2.run_until(60.0);
  EXPECT_EQ(metrics_digest(cell.collect()), metrics_digest(cell2.collect()));
}

}  // namespace
}  // namespace wdc
