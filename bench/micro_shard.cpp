/// @file micro_shard.cpp
/// Within-run sharding microbenchmark: one large-population scenario
/// (10^5 clients, 8 cells) executed by the sharded core on one thread vs all
/// hardware threads. Unlike micro_sweep (parallelism ACROSS grid tasks) this
/// times parallelism INSIDE a single simulation — the speedup the bounded-lag
/// barrier buys, and the number the BENCH_sweep.json `micro_shard` datapoints
/// track across PRs. The digest counter doubles as an invariance probe: it
/// must be identical at every thread count.

#include <benchmark/benchmark.h>

#include "engine/digest.hpp"
#include "engine/scenario.hpp"
#include "engine/simulation.hpp"

namespace {

using namespace wdc;

/// 10^5 clients split over 8 cells; short horizon so the serial reference
/// stays benchmarkable on one core.
Scenario shard_point() {
  Scenario s;
  s.protocol = ProtocolKind::kTs;
  s.seed = 2026;
  s.num_clients = 100000;
  s.db.num_items = 500;
  s.sim_time_s = 4.0;
  s.warmup_s = 1.0;
  s.sleep.sleep_ratio = 0.1;
  s.traffic.offered_bps = 10e3;
  s.shard_cells = 8;
  return s;
}

/// range(0) = shard_threads (0 = the hardware, capped at the cell count).
void BM_ShardedRun(benchmark::State& state) {
  Scenario s = shard_point();
  s.shard_threads = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t digest = 0;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const Metrics m = run_scenario(s);
    digest = metrics_digest(m);
    queries = m.queries;
    benchmark::DoNotOptimize(digest);
  }
  state.counters["digest_lo32"] = static_cast<double>(digest & 0xffffffffu);
  state.counters["queries"] = static_cast<double>(queries);
  state.counters["clients"] = static_cast<double>(s.num_clients);
}

}  // namespace

BENCHMARK(BM_ShardedRun)
    ->Arg(1)   // serial reference (one thread)
    ->Arg(0)   // all hardware threads
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
