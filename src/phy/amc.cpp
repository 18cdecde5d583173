#include "phy/amc.hpp"

#include <algorithm>

namespace wdc {

AmcController::AmcController(const McsTable& table, AmcConfig cfg)
    : table_(table), cfg_(cfg) {
  if (cfg_.fixed_mcs >= table_.size()) cfg_.fixed_mcs = table_.size() - 1;
  last_ = cfg_.adaptive ? 0 : cfg_.fixed_mcs;
}

std::size_t AmcController::select_from_snr(double snr_db, Bits bits) {
  if (!cfg_.adaptive) {
    last_ = cfg_.fixed_mcs;
    return last_;
  }
  const double snr = snr_db - cfg_.backoff_db;
  const auto pick = [&](double s) {
    return bits == 0 ? table_.best_for(s, cfg_.target_bler)
                     : table_.best_for_message(s, cfg_.target_bler, bits);
  };
  std::size_t candidate = pick(snr);
  if (candidate > last_) {
    // Upward switches must clear the switching point by the hysteresis margin;
    // downward switches are immediate (fail-fast under fades).
    candidate = std::max(pick(snr - cfg_.hysteresis_db), last_);
  }
  last_ = candidate;
  return last_;
}

}  // namespace wdc
