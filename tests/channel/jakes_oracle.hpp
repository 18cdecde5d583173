#ifndef WDC_TESTS_CHANNEL_JAKES_ORACLE_HPP
#define WDC_TESTS_CHANNEL_JAKES_ORACLE_HPP

/// @file jakes_oracle.hpp
/// Test-only libm reference for the Rayleigh fader. JakesFader is the original
/// sum-of-sinusoids Jakes simulator (Pop–Beaulieu improved variant with random
/// phases) evaluated with 2n glibc `cos` calls per sample. The production
/// fader, JakesFaderV2 (src/channel/jakes_v2.hpp), builds the same oscillator
/// geometry from the same RNG draws in the same order and swaps only the cosine
/// for a pinned polynomial kernel — so a same-seed pair shares every arrival
/// angle and phase, and this class is the oracle the `-L channel` tier and the
/// fader suites measure it against.
///
/// g(t) = |h(t)|², E[g] = 1, autocorrelation ≈ J₀(2π·f_d·τ)²; a deterministic
/// function of t given the phases, with no state advance.

#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace wdc {

class JakesFader {
 public:
  /// @param doppler_hz maximum Doppler frequency f_d = v/λ (e.g. 1.2 m/s at 900 MHz
  ///                   ⇒ ≈3.6 Hz pedestrian; 14 m/s ⇒ ≈42 Hz vehicular)
  /// @param rng        source of the oscillator phases
  /// @param oscillators number of sinusoids per quadrature branch (≥8 recommended)
  JakesFader(double doppler_hz, Rng& rng, unsigned oscillators = 16);

  /// Instantaneous power gain |h(t)|² (linear, mean ≈ 1).
  double power_gain(SimTime t) const;

  /// Power gain in dB.
  double power_gain_db(SimTime t) const;

  double doppler_hz() const { return doppler_hz_; }

 private:
  double doppler_hz_;
  // Per-oscillator Doppler shift (rad/s) and phases for the I and Q branches.
  std::vector<double> omega_;
  std::vector<double> phi_i_;
  std::vector<double> phi_q_;
  double norm_;
};

}  // namespace wdc

#endif  // WDC_TESTS_CHANNEL_JAKES_ORACLE_HPP
