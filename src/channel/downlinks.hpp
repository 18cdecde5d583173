#ifndef WDC_CHANNEL_DOWNLINKS_HPP
#define WDC_CHANNEL_DOWNLINKS_HPP

/// @file downlinks.hpp
/// The cell's downlink channels: one received-SNR process per client, all of
/// the scenario's one fading model, held as a link set the PHY/MAC query by
/// client index.
///
/// A link combines its static budget (the mean SNR: tx power − path loss −
/// noise) with a small-scale model:
///  * none     — the mean, constant;
///  * rayleigh — mean + lognormal shadowing (only when σ > 0) + the Jakes
///               fader, every link's oscillators in one JakesBank;
///  * fsmc     — a per-link finite-state Markov chain;
///  * ge       — a per-link Gilbert–Elliott two-state chain.
///
/// The masked pass, snr_db(mask, t, out), is how the MAC asks for every
/// listener's SNR at once: it walks the mask a bank block (JakesBank::kLanes
/// links) at a time, skips blocks with no listener, and for the Rayleigh
/// model evaluates the fader once per remaining block. The fader is pure, so
/// lanes computed for non-listening links are simply discarded. Shadowing, FSMC and GE are stateful, each with its
/// own per-link RNG stream: they advance only for the links the mask
/// selects, in client order, exactly as one query per listener would.
/// Queries of one link must be non-decreasing in time, except that a stateful
/// link answers a query behind its newest one with its newest value.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/fsmc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/jakes_bank.hpp"
#include "channel/shadowing.hpp"
#include "sim/kernel_counters.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wdc {

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

class Downlinks {
 public:
  /// Oscillators per quadrature branch of every Rayleigh link.
  static constexpr unsigned kOscillators = 16;

  explicit Downlinks(const FadingConfig& cfg);

  /// Append one link with long-run mean `mean_snr_db`, drawing all its
  /// randomness from `rng` (a dedicated per-link stream): the fader's 3·n
  /// uniforms first, then one split for the shadowing / FSMC / GE chain.
  void add(double mean_snr_db, Rng rng);
  /// Room for `n` links in all, so a large cell's add() calls reallocate
  /// nothing.
  void reserve(std::size_t n);
  /// Bytes one link of a `cfg` cell holds: its mean SNR and fading state.
  static std::size_t bytes_per_link(const FadingConfig& cfg);

  std::size_t size() const { return mean_db_.size(); }
  /// size() rounded up to whole bank blocks: the longest mask snr_db takes.
  std::size_t padded_size() const;

  /// Instantaneous SNR (dB) of link `c` at time t.
  double snr_db(std::size_t c, SimTime t);

  /// SNR at t of every link c with mask[c] != 0, into out[c]; entries of
  /// unselected links are left as they were. mask.size() must be a multiple
  /// of JakesBank::kLanes, at most padded_size(), with zero bytes past
  /// size(). Returns the number of links evaluated.
  std::size_t snr_db(std::span<const std::uint8_t> mask, SimTime t,
                     double* out);

  /// Work done by the masked passes (instrumentation; zero when the perf
  /// counters are compiled out).
  LinkPassCounters counters() const { return counters_.snapshot(); }

 private:
  double rayleigh_snr_db(std::size_t c, SimTime t, double gain);

  FadingConfig cfg_;
  std::vector<double> mean_db_;
  std::optional<JakesBank> bank_;   ///< rayleigh
  std::vector<Shadowing> shadow_;   ///< rayleigh with σ > 0
  std::vector<Fsmc> fsmc_;
  std::vector<GilbertElliott> ge_;
  LinkPassCounterHook counters_;
};

}  // namespace wdc

#endif  // WDC_CHANNEL_DOWNLINKS_HPP
