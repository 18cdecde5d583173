#include "workload/query_gen.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace wdc {
namespace {

TEST(QueryGen, PoissonRateRespected) {
  Simulator sim;
  QueryConfig cfg;
  cfg.rate = 2.0;
  int count = 0;
  QueryGenerator gen(sim, cfg, 100, nullptr, Rng(1), [] { return true; },
                     [&](ItemId) { ++count; });
  sim.run_until(1000.0);
  EXPECT_NEAR(count, 2000, 150);
  EXPECT_EQ(gen.generated(), static_cast<std::uint64_t>(count));
}

TEST(QueryGen, InactiveSuppressesQueries) {
  Simulator sim;
  QueryConfig cfg;
  cfg.rate = 5.0;
  bool active = true;
  int count = 0;
  QueryGenerator gen(sim, cfg, 100, nullptr, Rng(2), [&] { return active; },
                     [&](ItemId) { ++count; });
  sim.schedule_at(50.0, [&] { active = false; });
  sim.run_until(100.0);
  EXPECT_NEAR(count, 250, 50);
  EXPECT_NEAR(static_cast<double>(gen.suppressed()), 250.0, 50.0);
}

TEST(QueryGen, ZeroRateGeneratesNothing) {
  Simulator sim;
  QueryConfig cfg;
  cfg.rate = 0.0;
  int count = 0;
  QueryGenerator gen(sim, cfg, 100, nullptr, Rng(3), [] { return true; },
                     [&](ItemId) { ++count; });
  sim.run_until(100.0);
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(QueryGen, HotColdConcentration) {
  Simulator sim;
  QueryConfig cfg;
  cfg.model = QueryModel::kHotCold;
  cfg.rate = 20.0;
  cfg.hot_items = 10;
  cfg.hot_frac = 0.8;
  std::uint64_t hot = 0, total = 0;
  QueryGenerator gen(sim, cfg, 100, nullptr, Rng(4), [] { return true; },
                     [&](ItemId id) {
                       ++total;
                       if (id < 10) ++hot;
                     });
  sim.run_until(2000.0);
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(total), 0.8, 0.02);
}

TEST(QueryGen, ZipfFavorsLowIds) {
  Simulator sim;
  QueryConfig cfg;
  cfg.model = QueryModel::kZipf;
  cfg.rate = 20.0;
  cfg.zipf_theta = 1.0;
  std::vector<int> counts(100, 0);
  const Zipf popularity(100, cfg.zipf_theta);
  QueryGenerator gen(sim, cfg, 100, &popularity, Rng(5), [] { return true; },
                     [&](ItemId id) { counts[id]++; });
  sim.run_until(2000.0);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(QueryGen, ItemsAlwaysInRange) {
  Simulator sim;
  QueryConfig cfg;
  cfg.rate = 10.0;
  cfg.hot_items = 200;  // exceeds item count: must clamp
  QueryGenerator gen(sim, cfg, 50, nullptr, Rng(6), [] { return true; },
                     [&](ItemId id) { ASSERT_LT(id, 50u); });
  sim.run_until(200.0);
}

TEST(QueryGen, RequiresCallbacks) {
  Simulator sim;
  QueryConfig cfg;
  EXPECT_THROW(
      QueryGenerator(sim, cfg, 10, nullptr, Rng(7), nullptr, [](ItemId) {}),
      std::invalid_argument);
  EXPECT_THROW(QueryGenerator(sim, cfg, 10, nullptr, Rng(7),
                              [] { return true; }, nullptr),
               std::invalid_argument);
  EXPECT_THROW(QueryGenerator(sim, cfg, 0, nullptr, Rng(7), [] { return true; },
                              [](ItemId) {}),
               std::invalid_argument);
}

TEST(QueryGen, ZipfNeedsTheMatchingSharedTable) {
  Simulator sim;
  QueryConfig cfg;
  cfg.model = QueryModel::kZipf;
  cfg.zipf_theta = 0.9;
  cfg.rate = 0.0;  // schedules nothing, so each generator may go out of scope
  const auto make = [&](const Zipf* table) {
    QueryGenerator gen(sim, cfg, 100, table, Rng(8), [] { return true; },
                       [](ItemId) {});
  };
  const Zipf good(100, 0.9);
  const Zipf short_table(50, 0.9);
  const Zipf other_theta(100, 1.0);
  EXPECT_NO_THROW(make(&good));
  EXPECT_THROW(make(nullptr), std::invalid_argument);
  EXPECT_THROW(make(&short_table), std::invalid_argument);
  EXPECT_THROW(make(&other_theta), std::invalid_argument);
}

TEST(QueryGen, GeneratorsSharingOneTableDrawLikePrivateTables) {
  // Two generators on one table, and one on a private copy, all seeded
  // alike: the shared table is read-only, so every stream is the same.
  Simulator sim;
  QueryConfig cfg;
  cfg.model = QueryModel::kZipf;
  cfg.rate = 5.0;
  const Zipf shared(200, cfg.zipf_theta);
  const Zipf own(200, cfg.zipf_theta);
  std::vector<ItemId> a, b, c;
  QueryGenerator ga(sim, cfg, 200, &shared, Rng(9), [] { return true; },
                    [&](ItemId id) { a.push_back(id); });
  QueryGenerator gb(sim, cfg, 200, &shared, Rng(9), [] { return true; },
                    [&](ItemId id) { b.push_back(id); });
  QueryGenerator gc(sim, cfg, 200, &own, Rng(9), [] { return true; },
                    [&](ItemId id) { c.push_back(id); });
  sim.run_until(100.0);
  ASSERT_GT(a.size(), 100u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(QueryModelParsing, RoundTrips) {
  EXPECT_EQ(query_model_from_string("hotcold"), QueryModel::kHotCold);
  EXPECT_EQ(query_model_from_string("zipf"), QueryModel::kZipf);
  EXPECT_THROW(query_model_from_string("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace wdc
