#include "channel/jakes_v2.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/fastcos.hpp"

namespace wdc {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kInvTwoPi = 0.15915494309189535;  // 1 / 2π
}  // namespace

JakesFaderV2::JakesFaderV2(double doppler_hz, Rng& rng, unsigned oscillators)
    : doppler_hz_(doppler_hz), n_(oscillators) {
  if (doppler_hz <= 0.0)
    throw std::invalid_argument("JakesFaderV2: doppler_hz > 0");
  if (oscillators < 4)
    throw std::invalid_argument("JakesFaderV2: need >= 4 oscillators");
  if (oscillators > kMaxOscillators)
    throw std::invalid_argument("JakesFaderV2: oscillators exceed kMaxOscillators");
  const unsigned n = oscillators;
  freq_turns_.resize(2 * static_cast<std::size_t>(n));
  phase_turns_.resize(2 * static_cast<std::size_t>(n));
  for (unsigned k = 0; k < n; ++k) {
    // Pop–Beaulieu geometry, three draws per oscillator (θ, φ_I, φ_Q in that
    // order) exactly as the libm oracle draws them, so a same-seed pair
    // shares every phase.
    const double theta = rng.uniform(0.0, 2.0 * kPi);
    const double alpha = (2.0 * kPi * k + theta) / (4.0 * n);
    // Stored in turns: ω/2π = f_d·cos(α) (Hz), φ/2π ∈ [0, 1).
    freq_turns_[k] = doppler_hz * std::cos(alpha);
    freq_turns_[n + k] = freq_turns_[k];
    phase_turns_[k] = rng.uniform(0.0, 2.0 * kPi) * kInvTwoPi;
    phase_turns_[n + k] = rng.uniform(0.0, 2.0 * kPi) * kInvTwoPi;
  }
  norm_ = std::sqrt(1.0 / static_cast<double>(n));
}

double JakesFaderV2::power_gain(SimTime t) const {
  const std::size_t n = n_;
  const double* f = freq_turns_.data();
  const double* p = phase_turns_.data();
  // Straight-line kernel into a scratch buffer (no cross-iteration dependency)
  // so the compiler vectorizes the polynomial across all 2n sinusoids; the
  // reductions stay scalar and in fixed k-ascending order, which is what
  // pins the result bits.
  double buf[2 * kMaxOscillators];
  for (std::size_t k = 0; k < 2 * n; ++k)
    buf[k] = fastmath::cos_turns(f[k] * t + p[k]);
  double hi = 0.0, hq = 0.0;
  for (std::size_t k = 0; k < n; ++k) hi += buf[k];
  for (std::size_t k = 0; k < n; ++k) hq += buf[n + k];
  hi *= norm_;
  hq *= norm_;
  return hi * hi + hq * hq;
}

double JakesFaderV2::power_gain_db(SimTime t) const {
  return 10.0 * std::log10(std::max(power_gain(t), 1e-12));
}

}  // namespace wdc
