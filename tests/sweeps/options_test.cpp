/// @file options_test.cpp
/// The driver's option resolution and the sweep registry.
///
/// Historically the bench harness re-derived scenario defaults through a
/// second Config round-trip (defaults were printf'd with %g and re-parsed), so
/// an override could land twice or a default could lose precision. Resolution
/// now goes through Scenario::from_config(cfg, base) — the single source of
/// truth — and these tests pin that down.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sweeps/sweeps.hpp"
#include "util/config.hpp"

namespace wdc {
namespace {

TEST(SweepOptionsTest, DefaultsAreTheBenchOperatingPoint) {
  const Config cfg;
  const SweepOptions opts = sweeps::options_from_config(cfg);
  EXPECT_EQ(opts.reps, 3u);
  EXPECT_EQ(opts.threads, 0u);
  EXPECT_EQ(opts.base.num_clients, 30u);
  EXPECT_EQ(opts.base.db.num_items, 600u);
  EXPECT_DOUBLE_EQ(opts.base.sim_time_s, 2000.0);
  EXPECT_DOUBLE_EQ(opts.base.warmup_s, 300.0);
  EXPECT_EQ(opts.base.seed, 20040426u);
}

TEST(SweepOptionsTest, OverridesLandExactlyOnce) {
  Config cfg;
  cfg.set("sim_time", "100");
  cfg.set("warmup", "20");  // sim_time must exceed warmup (default 300)
  cfg.set("seed", "7");
  cfg.set("clients", "12");
  cfg.set("reps", "5");
  const SweepOptions opts = sweeps::options_from_config(cfg);
  EXPECT_EQ(opts.reps, 5u);
  // Each override lands on the scenario once, everything else keeps the
  // bench-scale default.
  EXPECT_DOUBLE_EQ(opts.base.sim_time_s, 100.0);
  EXPECT_DOUBLE_EQ(opts.base.warmup_s, 20.0);
  EXPECT_EQ(opts.base.seed, 7u);
  EXPECT_EQ(opts.base.num_clients, 12u);
  EXPECT_EQ(opts.base.db.num_items, 600u);
}

TEST(SweepOptionsTest, NegativeRunCountsFailNamingTheKey) {
  // A plain cast would turn reps=-1 into 4294967295 replications.
  for (const char* key : {"reps", "threads", "trace_every"}) {
    Config cfg;
    cfg.set(key, "-1");
    try {
      (void)sweeps::options_from_config(cfg);
      ADD_FAILURE() << key << "=-1 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepOptionsTest, NoRoundTripThroughTextFormatting) {
  // A value that %g formatting would truncate must survive bit-exact.
  Config cfg;
  cfg.set("sim_time", "1234.5678901234567");
  const SweepOptions opts = sweeps::options_from_config(cfg);
  EXPECT_DOUBLE_EQ(opts.base.sim_time_s, 1234.5678901234567);
}

TEST(SweepOptionsTest, FromConfigBaseOverloadLayersOnTop) {
  Scenario base = sweeps::default_scenario();
  base.proto.ir_interval_s = 42.0;
  Config cfg;
  cfg.set("clients", "9");
  const Scenario sc = Scenario::from_config(cfg, base);
  EXPECT_EQ(sc.num_clients, 9u);                     // overridden
  EXPECT_DOUBLE_EQ(sc.proto.ir_interval_s, 42.0);    // inherited from base
  EXPECT_EQ(sc.seed, 20040426u);                     // inherited from base
}

TEST(SweepRegistryTest, AllFourteenSweepsRegistered) {
  const auto& specs = sweeps::all();
  ASSERT_EQ(specs.size(), 14u);
  const std::vector<std::string> expected = {
      "fig1", "fig2", "fig3",  "fig4", "fig5", "fig6", "fig7",
      "fig8", "fig9", "fig10", "figf", "tab1", "tab2", "tab3"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(specs[i].key, expected[i]);
    EXPECT_FALSE(specs[i].title.empty());
    EXPECT_FALSE(specs[i].variants.empty()) << specs[i].key;
    EXPECT_FALSE(specs[i].axis.values.empty()) << specs[i].key;
    EXPECT_FALSE(specs[i].series.empty()) << specs[i].key;
  }
}

TEST(SweepRegistryTest, FindByKey) {
  const SweepSpec* fig1 = sweeps::find("fig1");
  ASSERT_NE(fig1, nullptr);
  EXPECT_EQ(fig1->id, "FIG-1");
  EXPECT_EQ(sweeps::find("fig99"), nullptr);
  EXPECT_EQ(sweeps::find(""), nullptr);
}

}  // namespace
}  // namespace wdc
