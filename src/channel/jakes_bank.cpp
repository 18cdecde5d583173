#include "channel/jakes_bank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/fastcos.hpp"

namespace wdc {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kInvTwoPi = 0.15915494309189535;  // 1 / 2π
constexpr std::size_t kLanes = JakesBank::kLanes;

/// The one fader kernel: power gains of L lanes whose oscillators are laid
/// out [k][freq | I phase | Q phase][l], contiguous — a bank block as stored
/// (L = kLanes), or one lane gathered out of its block (L = 1). Straight-line
/// per-lane arithmetic with no cross-lane dependency, so the loops vectorize
/// at whatever width the enclosing instantiation targets; the k-ascending
/// accumulation from 0.0 is what pins the result bits.
template <std::size_t L>
__attribute__((always_inline)) inline void gain_lanes(const double* f,
                                                      unsigned n, SimTime t,
                                                      double norm, double* g) {
  double hi[L] = {};
  double hq[L] = {};
  for (std::size_t k = 0; k < n; ++k) {
    const double* osc = f + k * 3 * L;
    for (std::size_t l = 0; l < L; ++l) {
      const double ft = osc[l] * t;
      hi[l] += fastmath::cos_turns(ft + osc[L + l]);
      hq[l] += fastmath::cos_turns(ft + osc[2 * L + l]);
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    const double a = hi[l] * norm;
    const double b = hq[l] * norm;
    g[l] = a * a + b * b;
  }
}

using BlockFn = void (*)(const double*, unsigned, SimTime, double, double*);

void block_baseline(const double* b, unsigned n, SimTime t, double norm,
                    double* g) {
  gain_lanes<kLanes>(b, n, t, norm, g);
}

#if defined(__x86_64__) || defined(__i386__)
#define WDC_BANK_X86 1
__attribute__((target("avx2"))) void block_avx2(const double* b, unsigned n,
                                                SimTime t, double norm,
                                                double* g) {
  gain_lanes<kLanes>(b, n, t, norm, g);
}

__attribute__((target("avx512f"))) void block_avx512(const double* b,
                                                     unsigned n, SimTime t,
                                                     double norm, double* g) {
  gain_lanes<kLanes>(b, n, t, norm, g);
}
#else
#define WDC_BANK_X86 0
#endif

BlockFn block_fn(JakesBank::Isa isa) {
#if WDC_BANK_X86
  switch (isa) {
    case JakesBank::Isa::kBaseline: return block_baseline;
    case JakesBank::Isa::kAvx2: return block_avx2;
    case JakesBank::Isa::kAvx512: return block_avx512;
  }
#endif
  (void)isa;
  return block_baseline;
}

bool cpu_has(JakesBank::Isa isa) {
#if WDC_BANK_X86
  __builtin_cpu_init();
  switch (isa) {
    case JakesBank::Isa::kBaseline: return true;
    case JakesBank::Isa::kAvx2: return __builtin_cpu_supports("avx2");
    case JakesBank::Isa::kAvx512: return __builtin_cpu_supports("avx512f");
  }
#endif
  return isa == JakesBank::Isa::kBaseline;
}
}  // namespace

bool JakesBank::supported(Isa isa) { return cpu_has(isa); }

JakesBank::Isa JakesBank::host_isa() {
  static const Isa isa = cpu_has(Isa::kAvx512) ? Isa::kAvx512
                         : cpu_has(Isa::kAvx2) ? Isa::kAvx2
                                               : Isa::kBaseline;
  return isa;
}

JakesBank::JakesBank(double doppler_hz, unsigned oscillators)
    : doppler_hz_(doppler_hz),
      n_(oscillators),
      norm_(std::sqrt(1.0 / static_cast<double>(oscillators))) {
  if (doppler_hz <= 0.0)
    throw std::invalid_argument("JakesBank: doppler_hz > 0");
  if (oscillators < 4)
    throw std::invalid_argument("JakesBank: need >= 4 oscillators");
  if (oscillators > kMaxOscillators)
    throw std::invalid_argument(
        "JakesBank: oscillators exceed kMaxOscillators");
}

void JakesBank::add(Rng& rng) {
  const std::size_t lane = size_ % kLanes;
  if (lane == 0)
    blocks_.push_back(std::make_unique<double[]>(3 * std::size_t{n_} * kLanes));
  double* lane0 = blocks_.back().get() + lane;
  for (unsigned k = 0; k < n_; ++k) {
    // Pop–Beaulieu geometry, three draws per oscillator (θ, φ_I, φ_Q in that
    // order) exactly as the libm oracle draws them, so a same-seed pair
    // shares every phase.
    const double theta = rng.uniform(0.0, 2.0 * kPi);
    const double alpha = (2.0 * kPi * k + theta) / (4.0 * n_);
    // Stored in turns: ω/2π = f_d·cos(α) (Hz), φ/2π ∈ [0, 1).
    double* osc = lane0 + std::size_t{k} * 3 * kLanes;
    osc[0] = doppler_hz_ * std::cos(alpha);
    osc[kLanes] = rng.uniform(0.0, 2.0 * kPi) * kInvTwoPi;
    osc[2 * kLanes] = rng.uniform(0.0, 2.0 * kPi) * kInvTwoPi;
  }
  ++size_;
}

double JakesBank::power_gain(std::size_t link, SimTime t) const {
  // Gather the lane contiguous, so its oscillators vectorize.
  double lane[3 * kMaxOscillators] = {};
  const double* src = block_data(link / kLanes) + link % kLanes;
  for (std::size_t i = 0; i < 3 * std::size_t{n_}; ++i)
    lane[i] = src[i * kLanes];
  double g = 0.0;
  gain_lanes<1>(lane, n_, t, norm_, &g);
  return g;
}

void JakesBank::block_gain(std::size_t block, SimTime t, double* g) const {
  static const BlockFn fn = block_fn(host_isa());
  fn(block_data(block), n_, t, norm_, g);
}

void JakesBank::block_gain(std::size_t block, SimTime t, double* g,
                           Isa isa) const {
  if (!supported(isa))
    throw std::invalid_argument("JakesBank: kernel variant not supported here");
  block_fn(isa)(block_data(block), n_, t, norm_, g);
}

double gain_db(double g) { return 10.0 * std::log10(std::max(g, 1e-12)); }

}  // namespace wdc
