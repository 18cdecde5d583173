#ifndef WDC_TESTS_CHANNEL_JAKES_ORACLE_HPP
#define WDC_TESTS_CHANNEL_JAKES_ORACLE_HPP

/// @file jakes_oracle.hpp
/// Test-only references for the Rayleigh fader (JakesBank,
/// src/channel/jakes_bank.hpp). Both build one link's oscillator geometry
/// from the same RNG draws in the same order as the bank, so a same-seed pair
/// shares every arrival angle and phase:
///  * JakesFader, the original sum-of-sinusoids Jakes simulator (Pop–Beaulieu
///    improved variant with random phases) evaluated with 2n glibc `cos`
///    calls per sample — the libm oracle the `-L channel` tier measures the
///    bank's pinned polynomial kernel against;
///  * JakesPerLink, the per-link loop the bank replaced — the same pinned
///    kernel, one link at a time, scalar reductions in k-ascending order — the
///    bit-exact oracle every bank kernel variant must reproduce with memcmp.
///
/// g(t) = |h(t)|², E[g] = 1, autocorrelation ≈ J₀(2π·f_d·τ)²; a deterministic
/// function of t given the phases, with no state advance.

#include <vector>

#include "channel/jakes_bank.hpp"
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

class JakesPerLink {
 public:
  JakesPerLink(double doppler_hz, Rng& rng, unsigned oscillators = 16);

  /// Instantaneous power gain |h(t)|² (linear, mean ≈ 1).
  double power_gain(SimTime t) const;

 private:
  unsigned n_;
  // Per-sinusoid frequency (turns/s) and phase (turns), I branch in [0, n),
  // Q branch in [n, 2n).
  std::vector<double> freq_turns_;
  std::vector<double> phase_turns_;
  double norm_;
};

/// One link of a fader behind the oracle's interface, for suites typed over
/// faders: JakesFader is itself; JakesBank is a one-link bank.
template <typename Fader>
class OneLink;

template <>
class OneLink<JakesFader> : public JakesFader {
 public:
  using JakesFader::JakesFader;
};

template <>
class OneLink<JakesBank> {
 public:
  OneLink(double doppler_hz, Rng& rng, unsigned oscillators = 16)
      : bank_(doppler_hz, oscillators) {
    bank_.add(rng);
  }
  double power_gain(SimTime t) const { return bank_.power_gain(0, t); }
  double power_gain_db(SimTime t) const { return gain_db(power_gain(t)); }

 private:
  JakesBank bank_;
};

}  // namespace wdc

#endif  // WDC_TESTS_CHANNEL_JAKES_ORACLE_HPP
