/// @file micro_channel.cpp
/// Channel-substrate microbenchmarks: the per-sample fading cost in
/// isolation. This is the term that dominated full-grid sweeps (~85% of
/// micro_sweep wall clock before the pinned cos kernel; see
/// docs/ANALYSIS.md), so these numbers are the denominator behind every
/// BENCH_sweep.json datapoint.
///
/// Measurements:
///  * BM_FaderV2                   — one link's power_gain(t) per iteration
///    (a one-link JakesBank: the one-lane kernel the unicast MCS pick uses);
///  * BM_SnrV2                     — the full one-link Downlinks::snr_db
///    stack (fader + shadowing + dB conversion);
///  * BM_BankPass/<isa>            — the block kernel over a 1024-link bank,
///    once per variant the host supports (items = links);
///  * BM_DownlinksPass             — the MAC's per-frame masked pass over
///    1024 Rayleigh links with 90% listening, dB conversion included;
///  * BM_CosTurnsX32 / BM_LibmCosX32 — the raw kernel vs libm gap, 32
///    cosines per iteration to mirror one 16-oscillator fader sample.
///
/// Args(oscillators): 8, 16 (the engine default), 32.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "channel/downlinks.hpp"
#include "channel/fastcos.hpp"
#include "channel/jakes_bank.hpp"
#include "util/rng.hpp"

namespace {

using namespace wdc;

void BM_FaderV2(benchmark::State& state) {
  Rng rng(42);
  JakesBank bank(8.0, static_cast<unsigned>(state.range(0)));
  bank.add(rng);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.013;
    benchmark::DoNotOptimize(bank.power_gain(0, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaderV2)->Arg(8)->Arg(16)->Arg(32);

void BM_SnrV2(benchmark::State& state) {
  FadingConfig cfg;
  cfg.shadow_sigma_db = 4.0;
  Downlinks links(cfg);
  links.add(12.0, Rng(7));
  double t = 0.0;
  for (auto _ : state) {
    t += 0.013;
    benchmark::DoNotOptimize(links.snr_db(0, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnrV2);

void BM_BankPass(benchmark::State& state, JakesBank::Isa isa) {
  if (!JakesBank::supported(isa)) {
    state.SkipWithError("kernel variant not supported on this host");
    return;
  }
  JakesBank bank(8.0, 16);
  Rng chain(11);
  for (std::int64_t c = 0; c < state.range(0); ++c) {
    Rng r = chain.split();
    bank.add(r);
  }
  std::vector<double> g(bank.blocks() * JakesBank::kLanes);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.013;
    for (std::size_t b = 0; b < bank.blocks(); ++b)
      bank.block_gain(b, t, g.data() + b * JakesBank::kLanes, isa);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_BankPass, baseline, JakesBank::Isa::kBaseline)->Arg(1024);
BENCHMARK_CAPTURE(BM_BankPass, avx2, JakesBank::Isa::kAvx2)->Arg(1024);
BENCHMARK_CAPTURE(BM_BankPass, avx512, JakesBank::Isa::kAvx512)->Arg(1024);

void BM_DownlinksPass(benchmark::State& state) {
  Downlinks links{FadingConfig{}};
  Rng chain(13);
  for (int c = 0; c < 1024; ++c) links.add(12.0, chain.split());
  std::vector<std::uint8_t> mask(links.padded_size(), 0);
  for (std::size_t c = 0; c < links.size(); ++c) mask[c] = c % 10 != 0;
  std::vector<double> out(links.padded_size());
  double t = 0.0;
  for (auto _ : state) {
    t += 0.013;
    benchmark::DoNotOptimize(links.snr_db(mask, t, out.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_DownlinksPass);

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
