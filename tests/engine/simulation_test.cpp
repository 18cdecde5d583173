#include "engine/simulation.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace wdc {
namespace {

Scenario small(ProtocolKind kind = ProtocolKind::kTs, std::uint64_t seed = 7) {
  Scenario s;
  s.protocol = kind;
  s.seed = seed;
  s.num_clients = 10;
  s.db.num_items = 200;
  s.sim_time_s = 600.0;
  s.warmup_s = 100.0;
  return s;
}

TEST(Simulation, RunsAndServesQueries) {
  const Metrics m = run_scenario(small());
  EXPECT_GT(m.queries, 100u);
  EXPECT_GT(m.answered, 100u);
  EXPECT_EQ(m.hits + m.misses, m.answered);
  EXPECT_EQ(m.stale_serves, 0u);
  EXPECT_GT(m.events, 1000u);
}

TEST(Simulation, SameSeedIsBitReproducible) {
  const Metrics a = run_scenario(small(ProtocolKind::kHyb, 42));
  const Metrics b = run_scenario(small(ProtocolKind::kHyb, 42));
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.answered, b.answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.reports_missed, b.reports_missed);
}

TEST(Simulation, DifferentSeedsDiffer) {
  const Metrics a = run_scenario(small(ProtocolKind::kTs, 1));
  const Metrics b = run_scenario(small(ProtocolKind::kTs, 2));
  EXPECT_NE(a.events, b.events);
}

TEST(Simulation, RunTwiceThrows) {
  Simulation sim(small());
  (void)sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, IncrementalRunMatchesCollect) {
  Simulation sim(small());
  sim.run_until(300.0);
  const Metrics mid = sim.collect();
  sim.run_until(600.0);
  const Metrics end = sim.collect();
  EXPECT_LT(mid.queries, end.queries);
  EXPECT_DOUBLE_EQ(mid.sim_time_s, 300.0);
  EXPECT_DOUBLE_EQ(end.sim_time_s, 600.0);
}

TEST(Simulation, AccessorsExposeComponents) {
  Simulation sim(small());
  EXPECT_EQ(sim.num_clients(), 10u);
  EXPECT_EQ(sim.database().num_items(), 200u);
  EXPECT_EQ(sim.client(0).id(), 0u);
  EXPECT_EQ(sim.client(9).id(), 9u);
  EXPECT_THROW(sim.client(10), std::out_of_range);
}

TEST(Simulation, WarmupExcludesEarlyQueries) {
  Scenario s = small();
  Scenario s2 = s;
  s2.warmup_s = 500.0;
  const Metrics full = run_scenario(s);
  const Metrics late = run_scenario(s2);
  EXPECT_GT(full.queries, late.queries);
}

TEST(Simulation, PathLossAssignmentRuns) {
  Scenario s = small();
  s.snr_assignment = SnrAssignment::kPathLoss;
  s.tx_power_dbm = 30.0;
  const Metrics m = run_scenario(s);
  EXPECT_GT(m.answered, 0u);
  EXPECT_EQ(m.stale_serves, 0u);
}

TEST(Simulation, FixedMcsModeRuns) {
  Scenario s = small();
  s.mac.amc.adaptive = false;
  s.mac.amc.fixed_mcs = 2;
  const Metrics m = run_scenario(s);
  EXPECT_GT(m.answered, 0u);
  EXPECT_NEAR(m.mean_broadcast_mcs, 2.0, 1e-9);
}

TEST(Simulation, MetricsPrintProducesOutput) {
  const Metrics m = run_scenario(small());
  std::ostringstream os;
  m.print(os);
  EXPECT_NE(os.str().find("hit ratio"), std::string::npos);
  EXPECT_NE(os.str().find("latency"), std::string::npos);
}

TEST(Simulation, LinkPassCountersArePinned) {
  // The downlink pass's work at the small scenario: 10 clients fill one
  // bank block and two lanes of a second, so any frame with a listener in
  // the second block computes its 6 padding lanes. Exact counts catch an
  // algorithmic change in the fan-out (say, a skipped-block regression)
  // that wall time on a noisy host would hide.
  if (!WDC_PERF_COUNTERS_ENABLED) GTEST_SKIP() << "perf counters compiled out";
  const Metrics m = run_scenario(small());
  EXPECT_EQ(m.link_pass.links_evaluated, 51740u);
  EXPECT_EQ(m.link_pass.padded_lanes, 31044u);
  std::ostringstream os;
  m.print(os);
  EXPECT_NE(os.str().find("downlink pass"), std::string::npos);
}

/// The 10^5-client cell of the `cell_pop` benchmark workload, parsed the way
/// `wdc_sim run` parses it.
Scenario cell_pop_scenario() {
  Config c;
  c.set("clients", "100000");
  c.set("items", "500");
  c.set("sleep_ratio", "0.1");
  c.set("traffic_bps", "10000");
  c.set("ir_interval", "5");
  c.set("warmup", "1");
  c.set("sim_time", "16");
  return Scenario::from_config(c);
}

TEST(ConstructionEstimate, CellPopClientCostsAtMostTwoKilobytes) {
  // Deterministic on a given ABI: the sum of per-client type sizes, bank
  // lane, MAC slots and queued events. A layer that grows its per-client
  // footprint past the 2 KB budget fails here before any benchmark runs.
  const Scenario sc = cell_pop_scenario();
  const ConstructionEstimate est = construction_estimate(sc, sc.num_clients);
  EXPECT_EQ(est.clients, 100000u);
  EXPECT_LE(est.bytes_per_client, 2048u);
  // The bank lane alone is 384 B and the client object several hundred more.
  EXPECT_GE(est.bytes_per_client, 1024u);
  EXPECT_EQ(est.total_bytes(), est.clients * est.bytes_per_client);
  // The Zipf model's table is shared, so it adds nothing per client.
  Scenario zipf = sc;
  zipf.query.model = QueryModel::kZipf;
  EXPECT_EQ(construction_estimate(zipf, zipf.num_clients).bytes_per_client,
            est.bytes_per_client);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(ConstructionEstimate, PopulationBeyondPhysicalMemoryFailsBeforeBuilding) {
  Config c;
  c.set("clients", "4294967295");
  const Scenario sc = Scenario::from_config(c);
  const long rss0 = peak_rss_kb();
  for (const std::uint32_t cells : {1u, 8u}) {
    Scenario s = sc;
    s.shard_cells = cells;
    try {
      (void)run_scenario(s);
      ADD_FAILURE() << "a 2^32-1 client cell was built";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("4294967295 clients"), std::string::npos) << what;
      EXPECT_NE(what.find("bytes per client"), std::string::npos) << what;
      EXPECT_NE(what.find("physical memory"), std::string::npos) << what;
    }
  }
  // Building even 1% of those clients would raise the peak by gigabytes.
  EXPECT_LT(peak_rss_kb() - rss0, 64L * 1024);
}

}  // namespace
}  // namespace wdc
