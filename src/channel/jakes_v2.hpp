#ifndef WDC_CHANNEL_JAKES_V2_HPP
#define WDC_CHANNEL_JAKES_V2_HPP

/// @file jakes_v2.hpp
/// The Rayleigh fader: a Pop–Beaulieu sum-of-sinusoids Jakes simulator with
/// random phases. It produces a *time-coherent* power gain g(t) = |h(t)|²,
/// E[g] = 1, with autocorrelation ≈ J₀(2π·f_d·τ)² — the property link
/// adaptation exploits (good now ⇒ probably good a moment later). Each sample
/// runs through the pinned polynomial kernel in fastcos.hpp rather than 2n
/// glibc `cos` calls:
///  - ~an order of magnitude cheaper per sample, and the cost is plain
///    vectorizable arithmetic rather than a libm call;
///  - bit-deterministic across platforms/libms (glibc `cos` is only pinned
///    per libm build) — the hot loop is pure IEEE arithmetic compiled with
///    contraction off.
///
/// The libm-cos original survives only as a test oracle (JakesFader in
/// tests/channel/jakes_oracle.hpp). It draws the same randomness in the same
/// order, so a same-seed pair shares every arrival angle and phase and differs
/// only by the kernel's ≤ ~1e-11 per-oscillator error; the `-L channel` tier
/// holds this fader to it (moments, J₀² autocorrelation, level crossings,
/// fade durations).
///
/// g(t) is a pure function of t given the phases — no state advance, safe to
/// evaluate from any thread, bit-stable under re-evaluation.

#include <cstddef>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace wdc {

class JakesFaderV2 {
 public:
  /// Hard cap on oscillators per quadrature branch (stack scratch bound).
  static constexpr unsigned kMaxOscillators = 64;

  /// Draws 3 uniforms per oscillator (θ, φ_I, φ_Q, in that order) — the
  /// same stream consumption as the libm oracle.
  JakesFaderV2(double doppler_hz, Rng& rng, unsigned oscillators = 16);

  /// Instantaneous power gain |h(t)|² (linear, mean ≈ 1).
  double power_gain(SimTime t) const;

  /// Power gain in dB.
  double power_gain_db(SimTime t) const;

  double doppler_hz() const { return doppler_hz_; }
  unsigned oscillators() const { return n_; }

 private:
  double doppler_hz_;
  unsigned n_;
  // Per-sinusoid frequency (in turns/s = Hz) and phase (in turns), I branch in
  // [0, n), Q branch in [n, 2n) — flat so both loops stream contiguously.
  std::vector<double> freq_turns_;
  std::vector<double> phase_turns_;
  double norm_;
};

}  // namespace wdc

#endif  // WDC_CHANNEL_JAKES_V2_HPP
