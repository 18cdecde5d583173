#include "phy/mcs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wdc {

double Mcs::bler(double snr_db) const {
  return 1.0 / (1.0 + std::exp((snr_db - gamma50_db) / slope_db));
}

double Mcs::frame_ok(double snr_db, double blocks) const {
  return std::pow(1.0 - bler(snr_db), blocks);
}

double Mcs::snr_for_bler(double target) const {
  if (!(target > 0.0 && target < 1.0))
    throw std::invalid_argument("Mcs::snr_for_bler: target in (0,1)");
  return gamma50_db + slope_db * std::log((1.0 - target) / target);
}

McsTable::McsTable(std::vector<Mcs> schemes) : schemes_(std::move(schemes)) {
  if (schemes_.empty()) throw std::invalid_argument("McsTable: empty");
  for (std::size_t i = 1; i < schemes_.size(); ++i) {
    if (schemes_[i].rate_bps <= schemes_[i - 1].rate_bps)
      throw std::invalid_argument("McsTable: rates must be strictly increasing");
    if (schemes_[i].gamma50_db <= schemes_[i - 1].gamma50_db)
      throw std::invalid_argument("McsTable: thresholds must be strictly increasing");
  }
}

McsTable McsTable::edge(unsigned timeslots) {
  if (timeslots == 0) throw std::invalid_argument("McsTable::edge: timeslots >= 1");
  const double m = static_cast<double>(timeslots);
  // Per-timeslot EDGE rates (kb/s) and γ50 values placed so the 10%-BLER point of
  // each scheme lands at the classic EDGE switching thresholds (≈ 2.5 dB apart).
  std::vector<Mcs> v = {
      {"MCS-1", 8.8e3 * m, 1.0, 1.2},   {"MCS-2", 11.2e3 * m, 3.5, 1.2},
      {"MCS-3", 14.8e3 * m, 6.0, 1.2},  {"MCS-4", 17.6e3 * m, 8.5, 1.2},
      {"MCS-5", 22.4e3 * m, 11.0, 1.3}, {"MCS-6", 29.6e3 * m, 14.0, 1.3},
      {"MCS-7", 44.8e3 * m, 18.0, 1.4}, {"MCS-8", 54.4e3 * m, 21.5, 1.4},
      {"MCS-9", 59.2e3 * m, 24.5, 1.4},
  };
  return McsTable(std::move(v));
}

McsTable McsTable::wifi11b() {
  McsTable t({{"DSSS-1", 1e6, 1.0, 1.5},
              {"DSSS-2", 2e6, 4.0, 1.5},
              {"CCK-5.5", 5.5e6, 7.5, 1.5},
              {"CCK-11", 11e6, 10.5, 1.5}});
  t.set_block_bits(bits_from_bytes(256));  // WLAN fragment magnitude
  t.set_preamble_s(0.000192);              // long PLCP preamble
  return t;
}

McsTable McsTable::simple3() {
  return McsTable({{"LOW", 10e3, 0.0, 1.0},
                   {"MID", 50e3, 10.0, 1.0},
                   {"HIGH", 100e3, 20.0, 1.0}});
}

std::size_t McsTable::best_for(double snr_db, double target_bler) const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < schemes_.size(); ++i)
    if (schemes_[i].bler(snr_db) <= target_bler) best = i;
  // If even scheme 0 misses the target we still return 0: transmissions always use
  // the most robust scheme as the floor (standard AMC behaviour).
  return best;
}

std::size_t McsTable::best_for_message(double snr_db, double frame_target,
                                       Bits bits) const {
  // Per-block target so that (1−b)^n >= 1−frame_target:
  //   b <= 1 − (1−frame_target)^(1/n).
  const double n = static_cast<double>(blocks_for(bits));
  const double per_block = 1.0 - std::pow(1.0 - frame_target, 1.0 / n);
  return best_for(snr_db, per_block);
}

double McsTable::airtime_s(Bits bits, std::size_t i) const {
  return preamble_s_ + static_cast<double>(bits) / schemes_.at(i).rate_bps;
}

std::size_t McsTable::blocks_for(Bits bits) const {
  if (bits == 0) return 1;
  return static_cast<std::size_t>((bits + block_bits_ - 1) / block_bits_);
}

double McsTable::decode_prob(Bits bits, std::size_t i, double snr_db) const {
  return schemes_.at(i).frame_ok(snr_db, static_cast<double>(blocks_for(bits)));
}

}  // namespace wdc
