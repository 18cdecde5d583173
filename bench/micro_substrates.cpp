/// MICRO — google-benchmark microbenchmarks for the substrate hot paths: the
/// event queue, RNG, channel samplers, report construction and full-simulation
/// throughput. These quantify the simulator itself (events/s), not the paper.

#include <benchmark/benchmark.h>

#include "channel/fsmc.hpp"
#include "engine/simulation.hpp"
#include "phy/mcs.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/variates.hpp"

namespace {

using namespace wdc;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_int(1000));
}
BENCHMARK(BM_RngUniformInt);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  Zipf zipf(static_cast<std::size_t>(state.range(0)), 0.9);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  Rng rng(2);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i)
    q.push(rng.uniform(0.0, 1e6), EventPriority::kDefault, [] {});
  double t = 1e6;
  for (auto _ : state) {
    q.push(t, EventPriority::kDefault, [] {});
    benchmark::DoNotOptimize(q.pop());
    t += 0.001;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(100)->Arg(10000);

void BM_FsmcAdvance(benchmark::State& state) {
  Fsmc fsmc(15.0, 10.0, 8, 0.005, Rng(4));
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsmc.snr_db(t));
    t += 0.005;
  }
}
BENCHMARK(BM_FsmcAdvance);

void BM_McsDecodeProb(benchmark::State& state) {
  const McsTable table = McsTable::edge();
  double snr = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.decode_prob(8192, 4, snr));
    snr = snr > 30.0 ? 0.0 : snr + 0.1;
  }
}
BENCHMARK(BM_McsDecodeProb);

void BM_FullSimulationThroughput(benchmark::State& state) {
  // End-to-end events/second of the whole simulator at a small operating point.
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Scenario s;
    s.protocol = ProtocolKind::kHyb;
    s.num_clients = 20;
    s.db.num_items = 300;
    s.sim_time_s = 200.0;
    s.warmup_s = 50.0;
    s.seed = seed++;
    const Metrics m = run_scenario(s);
    state.counters["events_per_s"] = benchmark::Counter(
        static_cast<double>(m.events), benchmark::Counter::kIsRate);
    benchmark::DoNotOptimize(m.answered);
  }
}
BENCHMARK(BM_FullSimulationThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
