#include "jakes_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wdc {

namespace {
constexpr double kPi = 3.14159265358979323846;
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

}  // namespace wdc
