#include "channel/fsmc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"

namespace wdc {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

Fsmc::Fsmc(double mean_snr_db, double doppler_hz, unsigned num_states, double slot_s,
           Rng rng)
    : slot_s_(slot_s), rng_(rng) {
  if (num_states < 2) throw std::invalid_argument("Fsmc: need >= 2 states");
  if (slot_s <= 0.0) throw std::invalid_argument("Fsmc: slot must be > 0");
  if (doppler_hz <= 0.0) throw std::invalid_argument("Fsmc: doppler must be > 0");
  rep_snr_db_.resize(num_states);
  p_up_.resize(num_states);
  p_down_.resize(num_states);
  build(mean_snr_db, doppler_hz);
  // Start in a state drawn from the stationary distribution (equiprobable).
  state_ = static_cast<unsigned>(rng_.uniform_int(num_states));
}

void Fsmc::build(double mean_snr_db, double doppler_hz) {
  const unsigned K = static_cast<unsigned>(rep_snr_db_.size());
  const double mean_lin = std::pow(10.0, mean_snr_db / 10.0);

  // Equiprobable thresholds: F(Γ_k) = k/K with F(γ) = 1−exp(−γ/γ̄)
  // ⇒ Γ_k = −γ̄·ln(1 − k/K).
  thresholds_lin_.resize(K + 1);
  thresholds_lin_[0] = 0.0;
  for (unsigned k = 1; k < K; ++k)
    thresholds_lin_[k] =
        -mean_lin * std::log(1.0 - static_cast<double>(k) / static_cast<double>(K));
  thresholds_lin_[K] = std::numeric_limits<double>::infinity();

  // Representative SNR: conditional mean within [Γ_k, Γ_{k+1}) under Exp(γ̄):
  // E[γ | Γ_k ≤ γ < Γ_{k+1}] = γ̄ + (Γ_k e^{−Γ_k/γ̄} − Γ_{k+1} e^{−Γ_{k+1}/γ̄}) / (π_k)
  // with π_k = e^{−Γ_k/γ̄} − e^{−Γ_{k+1}/γ̄} = 1/K.
  const double pi_k = 1.0 / static_cast<double>(K);
  for (unsigned k = 0; k < K; ++k) {
    const double a = thresholds_lin_[k];
    const double b = thresholds_lin_[k + 1];
    const double ea = std::exp(-a / mean_lin);
    const double eb = std::isinf(b) ? 0.0 : std::exp(-b / mean_lin);
    const double term_b = std::isinf(b) ? 0.0 : b * eb;
    const double cond_mean = mean_lin + (a * ea - term_b) / pi_k;
    rep_snr_db_[k] = 10.0 * std::log10(std::max(cond_mean, 1e-12));
  }

  // Level-crossing rates and per-slot adjacent transition probabilities.
  const auto lcr = [&](double gamma) {
    if (gamma <= 0.0 || std::isinf(gamma)) return 0.0;
    return std::sqrt(2.0 * kPi * gamma / mean_lin) * doppler_hz *
           std::exp(-gamma / mean_lin);
  };
  for (unsigned k = 0; k < K; ++k) {
    const double up = k + 1 < K ? lcr(thresholds_lin_[k + 1]) * slot_s_ / pi_k : 0.0;
    const double down = k > 0 ? lcr(thresholds_lin_[k]) * slot_s_ / pi_k : 0.0;
    // Clamp so the slot approximation stays a proper distribution even for large
    // f_d·T_s; warn-level accuracy loss is acceptable, correctness is not.
    p_up_[k] = std::min(up, 0.45);
    p_down_[k] = std::min(down, 0.45);
  }
}

void Fsmc::step() {
  const double u = rng_.uniform();
  if (u < p_up_[state_]) {
    ++state_;
  } else if (u < p_up_[state_] + p_down_[state_]) {
    --state_;
  }
}

unsigned Fsmc::state(SimTime t) {
  WDC_ASSERT(t >= 0.0, "Fsmc: negative query time ", t);
  // Queries behind the frontier (delayed-CSI sampling) see the newest state;
  // the chain only ever advances.
  const auto target = static_cast<std::int64_t>(t / slot_s_);
  while (slots_done_ < target) {
    step();
    ++slots_done_;
  }
  return state_;
}

double Fsmc::snr_db(SimTime t) { return rep_snr_db_[state(t)]; }

double Fsmc::threshold_db(unsigned k) const {
  if (k >= thresholds_lin_.size())
    throw std::out_of_range("Fsmc::threshold_db");
  const double lin = thresholds_lin_[k];
  if (lin <= 0.0) return -std::numeric_limits<double>::infinity();
  if (std::isinf(lin)) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(lin);
}

}  // namespace wdc
