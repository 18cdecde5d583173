#include "channel/snr_process.hpp"

#include <cmath>
#include <stdexcept>

namespace wdc {

RayleighSnr::RayleighSnr(double mean_snr_db, double doppler_hz,
                         double shadow_sigma_db, double shadow_decorr_s, Rng& rng,
                         unsigned oscillators)
    : mean_snr_db_(mean_snr_db),
      fader_(doppler_hz, rng, oscillators),
      shadowing_(shadow_sigma_db, shadow_decorr_s, rng.split()) {}

double RayleighSnr::snr_db(SimTime t) {
  return mean_snr_db_ + shadowing_.gain_db(t) + fader_.power_gain_db(t);
}

FsmcSnr::FsmcSnr(double mean_snr_db, double doppler_hz, unsigned num_states,
                 double slot_s, Rng& rng)
    : mean_snr_db_(mean_snr_db),
      fsmc_(mean_snr_db, doppler_hz, num_states, slot_s, rng.split()) {}

GilbertElliottSnr::GilbertElliottSnr(double mean_good_s, double mean_bad_s,
                                     double good_snr_db, double bad_snr_db, Rng& rng)
    : ge_(mean_good_s, mean_bad_s, good_snr_db, bad_snr_db, rng.split()),
      good_snr_db_(good_snr_db),
      bad_snr_db_(bad_snr_db) {}

double GilbertElliottSnr::mean_snr_db() const {
  const double pg = ge_.stationary_good();
  const double lin = pg * std::pow(10.0, good_snr_db_ / 10.0) +
                     (1.0 - pg) * std::pow(10.0, bad_snr_db_ / 10.0);
  return 10.0 * std::log10(lin);
}

FadingModel fading_model_from_string(const std::string& name) {
  if (name == "none") return FadingModel::kNone;
  if (name == "rayleigh") return FadingModel::kRayleigh;
  if (name == "fsmc") return FadingModel::kFsmc;
  if (name == "ge" || name == "gilbert-elliott") return FadingModel::kGilbertElliott;
  throw std::invalid_argument("unknown fading model: " + name);
}

std::string to_string(FadingModel m) {
  switch (m) {
    case FadingModel::kNone: return "none";
    case FadingModel::kRayleigh: return "rayleigh";
    case FadingModel::kFsmc: return "fsmc";
    case FadingModel::kGilbertElliott: return "ge";
  }
  return "?";
}

std::unique_ptr<SnrProcess> make_snr_process(const FadingConfig& cfg,
                                             double mean_snr_db, Rng& rng) {
  switch (cfg.model) {
    case FadingModel::kNone:
      return std::make_unique<FixedSnr>(mean_snr_db);
    case FadingModel::kRayleigh:
      return std::make_unique<RayleighSnr>(mean_snr_db, cfg.doppler_hz,
                                           cfg.shadow_sigma_db, cfg.shadow_decorr_s,
                                           rng);
    case FadingModel::kFsmc:
      return std::make_unique<FsmcSnr>(mean_snr_db, cfg.doppler_hz, cfg.fsmc_states,
                                       cfg.fsmc_slot_s, rng);
    case FadingModel::kGilbertElliott:
      return std::make_unique<GilbertElliottSnr>(cfg.ge_mean_good_s, cfg.ge_mean_bad_s,
                                                 mean_snr_db, cfg.ge_bad_snr_db, rng);
  }
  throw std::logic_error("make_snr_process: unreachable");
}

}  // namespace wdc
