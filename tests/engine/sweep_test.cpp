/// @file sweep_test.cpp
/// The grid engine's core guarantees: results are bit-identical whatever the
/// worker thread count, ordered by (variant, point, replication), equal to
/// what run_replications produces cell by cell, degenerate grids (no
/// variants, no points, zero replications) are handled without surprises, and
/// a failing replication throws the serial run's exception at any thread count.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/digest.hpp"
#include "engine/replication.hpp"
#include "engine/sweep.hpp"

namespace wdc {
namespace {

/// A small but non-trivial grid: 2 protocols × 2 points × 2 replications of a
/// short scenario — 8 tasks, several per worker even at 4 threads.
SweepSpec test_spec() {
  SweepSpec s;
  s.key = "test";
  s.id = "TEST";
  s.title = "sweep engine test grid";
  s.axis = {"L (s)",
            {5.0, 20.0},
            [](Scenario& sc, double L) { sc.proto.ir_interval_s = L; }};
  s.variants =
      protocol_variants({ProtocolKind::kTs, ProtocolKind::kUir});
  s.series = {{"mean query latency (s)", "",
               [](const Metrics& m) { return m.mean_latency_s; }, 3}};
  return s;
}

Scenario test_base() {
  Scenario s;
  s.seed = 42;
  s.num_clients = 5;
  s.sim_time_s = 60.0;
  s.warmup_s = 10.0;
  return s;
}

SweepOptions test_opts(unsigned threads) {
  SweepOptions o;
  o.reps = 2;
  o.threads = threads;
  o.base = test_base();
  return o;
}

std::vector<std::uint64_t> grid_digests(const SweepGrid& g) {
  std::vector<std::uint64_t> out;
  for (const auto& cell : g.cells)
    for (const auto& m : cell.reps) out.push_back(metrics_digest(m));
  return out;
}

TEST(SweepTest, GridShapeAndOrdering) {
  const auto grid = run_sweep(test_spec(), test_opts(1));
  ASSERT_EQ(grid.num_variants(), 2u);
  ASSERT_EQ(grid.num_points(), 2u);
  ASSERT_EQ(grid.cells.size(), 4u);
  EXPECT_EQ(grid.variant_names, (std::vector<std::string>{"TS", "UIR"}));
  EXPECT_EQ(grid.xs, (std::vector<double>{5.0, 20.0}));
  EXPECT_EQ(grid.reps, 2u);

  // Cells come back variant-major, replications by index within each cell.
  std::size_t i = 0;
  for (std::size_t v = 0; v < grid.num_variants(); ++v) {
    for (std::size_t p = 0; p < grid.num_points(); ++p, ++i) {
      const SweepCell& c = grid.cells[i];
      EXPECT_EQ(c.variant, v);
      EXPECT_EQ(c.point, p);
      EXPECT_EQ(c.x, grid.xs[p]);
      ASSERT_EQ(c.reps.size(), 2u);
      ASSERT_EQ(c.seeds.size(), 2u);
      EXPECT_EQ(&grid.cell(v, p), &c);
      // Each replication ran under the seed the grid reports for it.
      for (std::size_t r = 0; r < c.reps.size(); ++r)
        EXPECT_EQ(c.reps[r].seed, c.seeds[r]);
    }
  }
}

TEST(SweepTest, ThreadCountIndependence) {
  const auto spec = test_spec();
  const auto one = run_sweep(spec, test_opts(1));
  const auto four = run_sweep(spec, test_opts(4));
  EXPECT_EQ(one.threads_used, 1u);
  ASSERT_EQ(one.cells.size(), four.cells.size());
  EXPECT_EQ(grid_digests(one), grid_digests(four));
}

TEST(SweepTest, RepeatDeterminism) {
  const auto spec = test_spec();
  const auto a = run_sweep(spec, test_opts(2));
  const auto b = run_sweep(spec, test_opts(2));
  EXPECT_EQ(grid_digests(a), grid_digests(b));
}

TEST(SweepTest, MatchesRunReplicationsPerCell) {
  const auto spec = test_spec();
  const auto grid = run_sweep(spec, test_opts(4));
  for (std::size_t v = 0; v < grid.num_variants(); ++v) {
    for (std::size_t p = 0; p < grid.num_points(); ++p) {
      Scenario sc = test_base();
      spec.variants[v].apply(sc);
      spec.axis.apply(sc, spec.axis.values[p]);
      const auto ref = run_replications(sc, 2, 1);
      const SweepCell& cell = grid.cell(v, p);
      ASSERT_EQ(ref.size(), cell.reps.size());
      for (std::size_t r = 0; r < ref.size(); ++r)
        EXPECT_EQ(metrics_digest(ref[r]), metrics_digest(cell.reps[r]))
            << "variant " << v << " point " << p << " rep " << r;
    }
  }
}

TEST(SweepTest, ProgressFiresOncePerCell) {
  std::size_t calls = 0;
  std::size_t last_done = 0;
  const auto grid =
      run_sweep(test_spec(), test_opts(4), [&](const SweepProgress& p) {
        ++calls;
        EXPECT_EQ(p.cells_total, 4u);
        EXPECT_EQ(p.cells_done, calls);  // serialised, monotone
        ASSERT_NE(p.cell, nullptr);
        EXPECT_EQ(p.cell->reps.size(), 2u);
        last_done = p.cells_done;
      });
  EXPECT_EQ(calls, grid.cells.size());
  EXPECT_EQ(last_done, 4u);
}

TEST(SweepTest, EmptyGrids) {
  SweepSpec spec = test_spec();
  const auto opts = test_opts(2);

  {
    SweepSpec no_variants = spec;
    no_variants.variants.clear();
    const auto g = run_sweep(no_variants, opts);
    EXPECT_EQ(g.cells.size(), 0u);
    EXPECT_EQ(g.num_variants(), 0u);
    EXPECT_EQ(g.num_points(), 2u);
  }
  {
    SweepSpec no_points = spec;
    no_points.axis.values.clear();
    const auto g = run_sweep(no_points, opts);
    EXPECT_EQ(g.cells.size(), 0u);
    EXPECT_EQ(g.num_points(), 0u);
  }
  {
    SweepOptions zero_reps = opts;
    zero_reps.reps = 0;
    const auto g = run_sweep(spec, zero_reps);
    ASSERT_EQ(g.cells.size(), 4u);  // cells exist, but hold no replications
    for (const auto& c : g.cells) {
      EXPECT_TRUE(c.reps.empty());
      EXPECT_TRUE(c.seeds.empty());
    }
  }
}

TEST(SweepTest, FailingTaskThrowsTheSerialExceptionAtAnyThreadCount) {
  // Point 1 zeroes the IR interval and point 2 the population, so the grid
  // has failing tasks with two different messages. Tasks run in (variant,
  // point, replication) order, so a serial run throws point 1's; a pool must
  // throw that same one — not abort, and not whichever failure came first.
  SweepSpec spec = test_spec();
  spec.axis = {"x", {5.0, 0.0, -1.0}, [](Scenario& sc, double x) {
                 if (x < 0.0)
                   sc.num_clients = 0;
                 else
                   sc.proto.ir_interval_s = x;
               }};
  const auto message_at = [&](unsigned threads) {
    try {
      run_sweep(spec, test_opts(threads));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  EXPECT_EQ(message_at(1), "Scenario: ir_interval > 0");
  EXPECT_EQ(message_at(4), message_at(1));

  Scenario bad = test_base();
  bad.proto.ir_interval_s = 0.0;
  EXPECT_THROW(run_replications(bad, 4, 4), std::invalid_argument);
}

TEST(SweepTest, SingleCellGrid) {
  SweepSpec spec = test_spec();
  spec.axis.values = {10.0};
  spec.variants.resize(1);
  SweepOptions opts = test_opts(3);
  opts.reps = 1;
  const auto g = run_sweep(spec, opts);
  ASSERT_EQ(g.cells.size(), 1u);
  EXPECT_EQ(g.cells[0].variant, 0u);
  EXPECT_EQ(g.cells[0].point, 0u);
  ASSERT_EQ(g.cells[0].reps.size(), 1u);
  EXPECT_GT(g.cells[0].reps[0].queries, 0u);
}

}  // namespace
}  // namespace wdc
