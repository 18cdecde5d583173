#ifndef WDC_CHANNEL_FSMC_HPP
#define WDC_CHANNEL_FSMC_HPP

/// @file fsmc.hpp
/// Finite-State Markov Channel (Wang & Moayeri style) derived from the Rayleigh
/// SNR distribution.
///
/// The received-SNR range is partitioned into K equiprobable states by thresholds
/// Γ₀=0 < Γ₁ < … < Γ_K=∞ with P(Γ_k ≤ γ < Γ_{k+1}) = 1/K under the exponential SNR
/// pdf (mean γ̄). Transitions happen only between adjacent states once per slot T_s,
/// with probabilities from the level-crossing rate
///     N(Γ) = sqrt(2πΓ/γ̄) · f_d · exp(−Γ/γ̄):
///     p_{k,k+1} = N(Γ_{k+1})·T_s / π_k ,  p_{k,k−1} = N(Γ_k)·T_s / π_k .
///
/// The FSMC advances lazily: a state(t) / snr_db(t) query fast-forwards the
/// chain by the needed number of slots. A query *behind* the frontier (the MAC
/// samples delayed CSI at now − csi_delay while decode draws sample at now)
/// returns the newest state — a Markov chain cannot rewind, and the frontier
/// only ever moves forward.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace wdc {

class Fsmc {
 public:
  /// @param mean_snr_db average received SNR γ̄ (dB)
  /// @param doppler_hz  maximum Doppler frequency
  /// @param num_states  K (≥ 2)
  /// @param slot_s      slot duration T_s; must satisfy f_d·T_s ≪ 1
  Fsmc(double mean_snr_db, double doppler_hz, unsigned num_states, double slot_s,
       Rng rng);

  /// State index in [0, K) at time t (0 = deepest fade). Queries behind the
  /// already-simulated frontier return the newest state (see file comment).
  unsigned state(SimTime t);

  /// Representative SNR of the current state: the conditional mean SNR within the
  /// state's threshold interval, in dB.
  double snr_db(SimTime t);

  unsigned num_states() const { return static_cast<unsigned>(rep_snr_db_.size()); }
  double threshold_db(unsigned k) const;        ///< Γ_k in dB (k in [0, K]); Γ_0 = −inf
  double p_up(unsigned k) const { return p_up_[k]; }
  double p_down(unsigned k) const { return p_down_[k]; }
  double slot_s() const { return slot_s_; }

 private:
  void build(double mean_snr_db, double doppler_hz);
  void step();

  double slot_s_;
  Rng rng_;
  std::vector<double> thresholds_lin_;  ///< Γ_0..Γ_K (linear), Γ_0=0, Γ_K=inf
  std::vector<double> rep_snr_db_;      ///< per-state representative SNR (dB)
  std::vector<double> p_up_;            ///< per-state upward transition prob per slot
  std::vector<double> p_down_;          ///< per-state downward transition prob per slot
  unsigned state_ = 0;
  std::int64_t slots_done_ = 0;
};

}  // namespace wdc

#endif  // WDC_CHANNEL_FSMC_HPP
