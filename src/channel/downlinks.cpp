#include "channel/downlinks.hpp"

#include <cstring>
#include <stdexcept>

#include "util/check.hpp"

namespace wdc {

FadingModel fading_model_from_string(const std::string& name) {
  if (name == "none") return FadingModel::kNone;
  if (name == "rayleigh") return FadingModel::kRayleigh;
  if (name == "fsmc") return FadingModel::kFsmc;
  if (name == "ge" || name == "gilbert-elliott")
    return FadingModel::kGilbertElliott;
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

Downlinks::Downlinks(const FadingConfig& cfg) : cfg_(cfg) {
  if (cfg_.model == FadingModel::kRayleigh)
    bank_.emplace(cfg_.doppler_hz, kOscillators);
}

void Downlinks::add(double mean_snr_db, Rng rng) {
  switch (cfg_.model) {
    case FadingModel::kNone:
      break;
    case FadingModel::kRayleigh:
      // The fader draws first; the shadowing stream splits off after it.
      bank_->add(rng);
      if (cfg_.shadow_sigma_db > 0.0)
        shadow_.emplace_back(cfg_.shadow_sigma_db, cfg_.shadow_decorr_s,
                             rng.split());
      break;
    case FadingModel::kFsmc:
      fsmc_.emplace_back(mean_snr_db, cfg_.doppler_hz, cfg_.fsmc_states,
                         cfg_.fsmc_slot_s, rng.split());
      break;
    case FadingModel::kGilbertElliott:
      ge_.emplace_back(cfg_.ge_mean_good_s, cfg_.ge_mean_bad_s, mean_snr_db,
                       cfg_.ge_bad_snr_db, rng.split());
      break;
  }
  mean_db_.push_back(mean_snr_db);
}

void Downlinks::reserve(std::size_t n) {
  mean_db_.reserve(n);
  switch (cfg_.model) {
    case FadingModel::kNone: break;
    case FadingModel::kRayleigh:
      bank_->reserve(n);
      if (cfg_.shadow_sigma_db > 0.0) shadow_.reserve(n);
      break;
    case FadingModel::kFsmc: fsmc_.reserve(n); break;
    case FadingModel::kGilbertElliott: ge_.reserve(n); break;
  }
}

std::size_t Downlinks::bytes_per_link(const FadingConfig& cfg) {
  std::size_t b = sizeof(double);  // mean_db_
  switch (cfg.model) {
    case FadingModel::kNone: break;
    case FadingModel::kRayleigh:
      // One bank lane: frequency, I phase and Q phase per oscillator.
      b += 3 * std::size_t{kOscillators} * sizeof(double);
      if (cfg.shadow_sigma_db > 0.0) b += sizeof(Shadowing);
      break;
    case FadingModel::kFsmc: b += sizeof(Fsmc); break;
    case FadingModel::kGilbertElliott: b += sizeof(GilbertElliott); break;
  }
  return b;
}

std::size_t Downlinks::padded_size() const {
  constexpr std::size_t kLanes = JakesBank::kLanes;
  return (size() + kLanes - 1) / kLanes * kLanes;
}

double Downlinks::rayleigh_snr_db(std::size_t c, SimTime t, double gain) {
  const double shadow = shadow_.empty() ? 0.0 : shadow_[c].gain_db(t);
  return mean_db_[c] + shadow + gain_db(gain);
}

double Downlinks::snr_db(std::size_t c, SimTime t) {
  switch (cfg_.model) {
    case FadingModel::kNone: return mean_db_[c];
    case FadingModel::kRayleigh:
      return rayleigh_snr_db(c, t, bank_->power_gain(c, t));
    case FadingModel::kFsmc: return fsmc_[c].snr_db(t);
    case FadingModel::kGilbertElliott: return ge_[c].snr_db(t);
  }
  return 0.0;
}

std::size_t Downlinks::snr_db(std::span<const std::uint8_t> mask, SimTime t,
                              double* out) {
  constexpr std::size_t kLanes = JakesBank::kLanes;
  WDC_ASSERT(mask.size() % kLanes == 0 && mask.size() <= padded_size(),
             "link mask of ", mask.size(), " bytes for ", size(), " links");
  std::size_t evaluated = 0;
  std::size_t computed = 0;
  double g[kLanes] = {};
  for (std::size_t base = 0; base < mask.size(); base += kLanes) {
    std::uint64_t any = 0;
    static_assert(sizeof any == kLanes);
    std::memcpy(&any, mask.data() + base, kLanes);
    if (any == 0) continue;
    if (bank_) {
      bank_->block_gain(base / kLanes, t, g);
      computed += kLanes;
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::size_t c = base + l;
      if (mask[c] == 0) continue;
      out[c] = bank_ ? rayleigh_snr_db(c, t, g[l]) : snr_db(c, t);
      ++evaluated;
    }
  }
  counters_.pass(evaluated, computed - evaluated);
  return evaluated;
}

}  // namespace wdc
