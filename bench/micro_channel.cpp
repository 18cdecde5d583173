/// @file micro_channel.cpp
/// Channel-substrate microbenchmarks: the per-sample fading cost in
/// isolation. This is the term that dominated full-grid sweeps (~85% of
/// micro_sweep wall clock before the pinned cos kernel; see
/// docs/ANALYSIS.md), so these numbers are the denominator behind every
/// BENCH_sweep.json datapoint.
///
/// Three measurements:
///  * BM_FaderV2                   — one power_gain(t) per iteration, the
///    event-driven access pattern (arbitrary t, no state);
///  * BM_SnrV2                     — the full RayleighSnr::snr_db stack the
///    PHY actually calls (fader + shadowing + dB conversion);
///  * BM_CosTurnsX32 / BM_LibmCosX32 — the raw kernel vs libm gap, 32
///    cosines per iteration to mirror one 16-oscillator fader sample.
///
/// Args(oscillators): 8, 16 (the engine default), 32.

#include <benchmark/benchmark.h>

#include <cmath>

#include "channel/fastcos.hpp"
#include "channel/jakes_v2.hpp"
#include "channel/snr_process.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdc;

void BM_FaderV2(benchmark::State& state) {
  Rng rng(42);
  JakesFaderV2 f(8.0, rng, static_cast<unsigned>(state.range(0)));
  double t = 0.0;
  for (auto _ : state) {
    t += 0.013;
    benchmark::DoNotOptimize(f.power_gain(t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaderV2)->Arg(8)->Arg(16)->Arg(32);

void BM_SnrV2(benchmark::State& state) {
  Rng rng(7);
  RayleighSnr snr(12.0, 8.0, 4.0, 30.0, rng, 16);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.013;
    benchmark::DoNotOptimize(snr.snr_db(t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnrV2);

/// Raw kernel comparison: 32 cosines per iteration (one 16-oscillator fader
/// sample's worth), same argument stream for both sides.
void BM_CosTurnsX32(benchmark::State& state) {
  double u = 0.0;
  double acc = 0.0;
  for (auto _ : state) {
    for (int k = 0; k < 32; ++k) {
      u += 0.0371;
      acc += fastmath::cos_turns(u);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_CosTurnsX32);

void BM_LibmCosX32(benchmark::State& state) {
  double u = 0.0;
  double acc = 0.0;
  for (auto _ : state) {
    for (int k = 0; k < 32; ++k) {
      u += 0.0371;
      acc += std::cos(6.283185307179586 * u);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_LibmCosX32);

}  // namespace

BENCHMARK_MAIN();
