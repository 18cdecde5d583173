#include "proto/uir.hpp"

namespace wdc {

void ServerUir::start() {
  const double L = cfg_.ir_interval_s;
  const unsigned m = cfg_.uir_m > 0 ? cfg_.uir_m : 1;
  const double slice = L / static_cast<double>(m);
  timer_ = std::make_unique<PeriodicTimer>(
      sim_, /*first=*/slice, /*period=*/slice, [this, m](std::uint64_t tick) {
        // Ticks 0..m−2 within each interval are minis; tick m−1 is the full report.
        if ((tick + 1) % m == 0) {
          auto full =
              build_full_report(cfg_.window_mult * cfg_.ir_interval_s);
          anchor_ = full.stamp;
          enqueue_full_report(std::move(full));
        } else {
          if (anchor_ <= 0.0) return;  // no anchor yet: skip leading minis
          enqueue_mini_report(build_mini_report(anchor_));
        }
      });
}

}  // namespace wdc
