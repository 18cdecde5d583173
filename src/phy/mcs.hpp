#ifndef WDC_PHY_MCS_HPP
#define WDC_PHY_MCS_HPP

/// @file mcs.hpp
/// Modulation-and-coding schemes and their error performance.
///
/// The default table is modelled on EDGE MCS-1…MCS-9 (the link-adaptation system a
/// 2004 wireless-data paper would assume): nine schemes from GMSK/heavy coding up to
/// 8-PSK/no coding, per-timeslot rates 8.8…59.2 kb/s scaled by a configurable number
/// of timeslots.
///
/// Block error rate is a logistic curve in the dB domain:
///     BLER(γ_dB) = 1 / (1 + exp((γ_dB − γ50) / s))
/// γ50 = SNR at 50% BLER, s = transition slope. This matches the shape of the
/// exponential PER fits used in the AMC literature while staying monotone,
/// invertible and trivially testable.

#include <cstddef>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace wdc {

struct Mcs {
  std::string name;
  double rate_bps;     ///< net data rate when this scheme is active
  double gamma50_db;   ///< SNR at 50% block error rate
  double slope_db;     ///< logistic transition width

  /// Block error probability at the given SNR.
  double bler(double snr_db) const;

  /// SNR (dB) at which this scheme reaches `target` BLER (inverse of bler()).
  double snr_for_bler(double target) const;

  /// Probability that all of a message's `blocks` radio blocks decode at
  /// `snr_db`: (1 − BLER)^blocks.
  double frame_ok(double snr_db, double blocks) const;
};

class McsTable {
 public:
  explicit McsTable(std::vector<Mcs> schemes);

  /// EDGE-like 9-scheme table; `timeslots` multiplies every rate (EDGE terminals
  /// commonly bundled 4 downlink timeslots ⇒ ≈237 kb/s peak).
  static McsTable edge(unsigned timeslots = 4);

  /// 802.11b-like 4-rate table (1/2/5.5/11 Mb/s DSSS/CCK) — the other radio a
  /// 2004 wireless-caching system would plausibly run on. Block size scaled up
  /// to WLAN fragment magnitudes.
  static McsTable wifi11b();

  /// Three-scheme toy table with widely separated thresholds (unit tests).
  static McsTable simple3();

  std::size_t size() const { return schemes_.size(); }
  const Mcs& at(std::size_t i) const { return schemes_[i]; }
  const Mcs& operator[](std::size_t i) const { return schemes_[i]; }

  /// Index of the highest-rate scheme whose BLER at `snr_db` is <= `target_bler`;
  /// returns 0 (the most robust scheme) if none qualifies.
  std::size_t best_for(double snr_db, double target_bler) const;

  /// Message-size-aware selection: picks the highest-rate scheme such that a
  /// message of `bits` (segmented into radio blocks) is fully decoded with
  /// probability >= 1 − frame_target at `snr_db`. Real link adaptation works per
  /// block; targeting the frame keeps multi-block reports/items deliverable.
  std::size_t best_for_message(double snr_db, double frame_target, Bits bits) const;

  /// Airtime in seconds to transmit `bits` with scheme `i`, including a fixed
  /// per-transmission preamble/header overhead.
  double airtime_s(Bits bits, std::size_t i) const;

  double preamble_s() const { return preamble_s_; }
  void set_preamble_s(double s) { preamble_s_ = s; }

  /// Radio-block payload size used for error segmentation (bits).
  Bits block_bits() const { return block_bits_; }
  void set_block_bits(Bits b) { block_bits_ = b; }

  /// Number of radio blocks a message of `bits` occupies (>= 1).
  std::size_t blocks_for(Bits bits) const;

  /// Probability that a receiver at `snr_db` decodes ALL blocks of a message of
  /// `bits` sent with scheme `i` (no ARQ — broadcast reception model).
  double decode_prob(Bits bits, std::size_t i, double snr_db) const;

 private:
  std::vector<Mcs> schemes_;
  double preamble_s_ = 0.002;     ///< 2 ms header/guard per transmission
  Bits block_bits_ = 456;         ///< EDGE radio block payload magnitude
};

}  // namespace wdc

#endif  // WDC_PHY_MCS_HPP
