#ifndef WDC_CHANNEL_SNR_PROCESS_HPP
#define WDC_CHANNEL_SNR_PROCESS_HPP

/// @file snr_process.hpp
/// Per-link received-SNR process — the single abstraction the PHY/MAC consume.
///
/// A process combines the static link budget (tx power − path loss + shadowing −
/// noise) with a small-scale fading model. Queries must be non-decreasing in time
/// (discrete-event simulations naturally satisfy this).

#include <memory>
#include <string>

#include "channel/fsmc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/jakes_v2.hpp"
#include "channel/shadowing.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wdc {

class SnrProcess {
 public:
  virtual ~SnrProcess() = default;
  /// Instantaneous SNR (dB) at time t; calls non-decreasing in t.
  virtual double snr_db(SimTime t) = 0;
  /// Long-run average SNR (dB) of the link (the γ̄ driving the fading model).
  virtual double mean_snr_db() const = 0;
};

/// Constant SNR — unit tests and "ideal channel" ablations.
class FixedSnr final : public SnrProcess {
 public:
  explicit FixedSnr(double snr_db) : snr_db_(snr_db) {}
  double snr_db(SimTime) override { return snr_db_; }
  double mean_snr_db() const override { return snr_db_; }

 private:
  double snr_db_;
};

/// Rayleigh fading (Jakes) around a mean SNR, with optional lognormal shadowing.
class RayleighSnr final : public SnrProcess {
 public:
  RayleighSnr(double mean_snr_db, double doppler_hz, double shadow_sigma_db,
              double shadow_decorr_s, Rng& rng, unsigned oscillators = 16);
  double snr_db(SimTime t) override;
  double mean_snr_db() const override { return mean_snr_db_; }

 private:
  double mean_snr_db_;
  // Declared (so constructed) before shadowing_: the fader's 3·n uniforms are
  // drawn before the shadowing stream is split off — the seed chain every
  // golden digest pins.
  JakesFaderV2 fader_;
  Shadowing shadowing_;
};

/// FSMC-driven SNR.
class FsmcSnr final : public SnrProcess {
 public:
  FsmcSnr(double mean_snr_db, double doppler_hz, unsigned num_states, double slot_s,
          Rng& rng);
  double snr_db(SimTime t) override { return fsmc_.snr_db(t); }
  double mean_snr_db() const override { return mean_snr_db_; }
  Fsmc& chain() { return fsmc_; }

 private:
  double mean_snr_db_;
  Fsmc fsmc_;
};

/// Gilbert–Elliott-driven SNR.
class GilbertElliottSnr final : public SnrProcess {
 public:
  GilbertElliottSnr(double mean_good_s, double mean_bad_s, double good_snr_db,
                    double bad_snr_db, Rng& rng);
  double snr_db(SimTime t) override { return ge_.snr_db(t); }
  /// Stationary linear-domain mix of the Good/Bad levels, in dB.
  double mean_snr_db() const override;

 private:
  GilbertElliott ge_;
  double good_snr_db_;
  double bad_snr_db_;
};

/// Which small-scale model a scenario uses.
enum class FadingModel { kNone, kRayleigh, kFsmc, kGilbertElliott };

/// Parse "none" / "rayleigh" / "fsmc" / "ge"; throws on unknown name.
FadingModel fading_model_from_string(const std::string& name);
std::string to_string(FadingModel m);

/// Parameters shared by all links of a scenario (per-link mean SNR differs).
struct FadingConfig {
  FadingModel model = FadingModel::kRayleigh;
  double doppler_hz = 8.0;          ///< pedestrian-ish at 2 GHz
  double shadow_sigma_db = 0.0;     ///< lognormal shadowing σ (0 = off)
  double shadow_decorr_s = 30.0;
  unsigned fsmc_states = 8;
  double fsmc_slot_s = 0.005;
  double ge_mean_good_s = 1.0;      ///< Gilbert–Elliott sojourns
  double ge_mean_bad_s = 0.2;
  double ge_bad_snr_db = -5.0;
};

/// Build a process with long-run mean `mean_snr_db` under `cfg`; draws all needed
/// randomness from `rng` (which should be a dedicated per-link stream).
std::unique_ptr<SnrProcess> make_snr_process(const FadingConfig& cfg,
                                             double mean_snr_db, Rng& rng);

}  // namespace wdc

#endif  // WDC_CHANNEL_SNR_PROCESS_HPP
