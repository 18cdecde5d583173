#include "jakes_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/fastcos.hpp"

namespace wdc {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kInvTwoPi = 0.15915494309189535;  // 1 / 2π
}

JakesFader::JakesFader(double doppler_hz, Rng& rng, unsigned oscillators)
    : doppler_hz_(doppler_hz) {
  if (doppler_hz <= 0.0) throw std::invalid_argument("JakesFader: doppler_hz > 0");
  if (oscillators < 4) throw std::invalid_argument("JakesFader: need >= 4 oscillators");
  const unsigned n = oscillators;
  omega_.reserve(n);
  phi_i_.reserve(n);
  phi_q_.reserve(n);
  const double wd = 2.0 * kPi * doppler_hz;
  for (unsigned k = 0; k < n; ++k) {
    // Arrival angles alpha_k = (2πk + θ)/N with a random rotation θ per fader
    // (Pop–Beaulieu): keeps the Doppler spectrum shape, decorrelates faders.
    const double theta = rng.uniform(0.0, 2.0 * kPi);
    const double alpha = (2.0 * kPi * k + theta) / (4.0 * n);
    omega_.push_back(wd * std::cos(alpha));
    phi_i_.push_back(rng.uniform(0.0, 2.0 * kPi));
    phi_q_.push_back(rng.uniform(0.0, 2.0 * kPi));
  }
  norm_ = std::sqrt(1.0 / static_cast<double>(n));
}

double JakesFader::power_gain(SimTime t) const {
  double hi = 0.0, hq = 0.0;
  for (std::size_t k = 0; k < omega_.size(); ++k) {
    const double w = omega_[k] * t;
    hi += std::cos(w + phi_i_[k]);
    hq += std::cos(w + phi_q_[k]);
  }
  hi *= norm_;
  hq *= norm_;
  return hi * hi + hq * hq;
}

double JakesFader::power_gain_db(SimTime t) const {
  return 10.0 * std::log10(std::max(power_gain(t), 1e-12));
}

JakesPerLink::JakesPerLink(double doppler_hz, Rng& rng, unsigned oscillators)
    : n_(oscillators) {
  const unsigned n = oscillators;
  freq_turns_.resize(2 * static_cast<std::size_t>(n));
  phase_turns_.resize(2 * static_cast<std::size_t>(n));
  for (unsigned k = 0; k < n; ++k) {
    const double theta = rng.uniform(0.0, 2.0 * kPi);
    const double alpha = (2.0 * kPi * k + theta) / (4.0 * n);
    freq_turns_[k] = doppler_hz * std::cos(alpha);
    freq_turns_[n + k] = freq_turns_[k];
    phase_turns_[k] = rng.uniform(0.0, 2.0 * kPi) * kInvTwoPi;
    phase_turns_[n + k] = rng.uniform(0.0, 2.0 * kPi) * kInvTwoPi;
  }
  norm_ = std::sqrt(1.0 / static_cast<double>(n));
}

double JakesPerLink::power_gain(SimTime t) const {
  const std::size_t n = n_;
  const double* f = freq_turns_.data();
  const double* p = phase_turns_.data();
  std::vector<double> buf(2 * n);
  for (std::size_t k = 0; k < 2 * n; ++k)
    buf[k] = fastmath::cos_turns(f[k] * t + p[k]);
  double hi = 0.0, hq = 0.0;
  for (std::size_t k = 0; k < n; ++k) hi += buf[k];
  for (std::size_t k = 0; k < n; ++k) hq += buf[n + k];
  hi *= norm_;
  hq *= norm_;
  return hi * hi + hq * hq;
}

}  // namespace wdc
