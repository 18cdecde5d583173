#ifndef WDC_PHY_AMC_HPP
#define WDC_PHY_AMC_HPP

/// @file amc.hpp
/// Adaptive modulation-and-coding (link adaptation) controller.
///
/// Selects the MCS for each transmission from an SNR estimate. Models the two
/// imperfections that matter to the protocols under study:
///   * measurement delay — the estimate is the SNR `csi_delay_s` ago;
///   * hysteresis — a scheme switch requires the SNR to clear the switching point
///     by `hysteresis_db`, suppressing rate flapping near thresholds.
/// A fixed-MCS mode provides the no-link-adaptation ablation (FIG-6).

#include <cstddef>

#include "phy/mcs.hpp"

namespace wdc {

struct AmcConfig {
  double target_bler = 0.10;   ///< classic 10% residual-BLER operating point
  double hysteresis_db = 1.0;
  double csi_delay_s = 0.02;   ///< measurement/feedback staleness
  bool adaptive = true;        ///< false ⇒ always use fixed_mcs
  std::size_t fixed_mcs = 2;
  double backoff_db = 0.0;     ///< extra SNR margin subtracted before selection
};

class AmcController {
 public:
  AmcController(const McsTable& table, AmcConfig cfg);

  /// MCS choice from an SNR figure. The caller applies the CSI delay: the MAC
  /// passes the SNR as of `csi_delay_s` before the transmission starts. The
  /// selection targets whole-message delivery at the configured BLER for a
  /// message of `bits` (0 ⇒ one block).
  std::size_t select_from_snr(double snr_db, Bits bits = 0);

  const McsTable& table() const { return table_; }
  const AmcConfig& config() const { return cfg_; }
  std::size_t last_choice() const { return last_; }

 private:
  const McsTable& table_;
  AmcConfig cfg_;
  std::size_t last_ = 0;
};

}  // namespace wdc

#endif  // WDC_PHY_AMC_HPP
