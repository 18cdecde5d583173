#include "proto/hyb.hpp"

#include <algorithm>
#include <cmath>

namespace wdc {

void ServerHyb::start() { schedule_full_tick(); }

void ServerHyb::schedule_full_tick() {
  ++tick_;
  const SimTime nominal = cfg_.ir_interval_s * static_cast<SimTime>(tick_);
  const SimTime at = nominal > sim_.now() ? nominal : sim_.now();
  sim_.schedule_at(at, [this, nominal] { probe_full(nominal); },
                   EventPriority::kProtocol);
}

void ServerHyb::probe_full(SimTime nominal) {
  // LAIR-style deferral of the full report.
  const SimTime deadline = nominal + cfg_.lair_window_s;
  const bool channel_good =
      mac_.broadcast_reference_snr(sim_.now()) >= cfg_.lair_min_snr_db;
  if (channel_good || sim_.now() + cfg_.lair_step_s > deadline) {
    if (sim_.now() > nominal) {
      ++lair_deferred_;
      lair_deferral_s_ += sim_.now() - nominal;
    }
    emit_full(nominal);
    schedule_full_tick();
    return;
  }
  sim_.schedule_in(cfg_.lair_step_s, [this, nominal] { probe_full(nominal); },
                   EventPriority::kProtocol);
}

unsigned ServerHyb::adapt_m() {
  // Consistency points wanted per interval: one per target_gap.
  const double L = cfg_.ir_interval_s;
  const auto needed = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(L / cfg_.hyb_target_gap_s)));
  // Digest-bearing frames sent since the previous full report substitute for
  // dedicated minis one-for-one.
  const std::uint64_t piggybacked =
      digest_frames() - digest_frames_at_interval_start_;
  const std::uint64_t minis_needed =
      needed > 1 + piggybacked ? needed - 1 - piggybacked : 0;
  const auto m = static_cast<unsigned>(
      std::min<std::uint64_t>(1 + minis_needed, cfg_.hyb_max_m));
  digest_frames_at_interval_start_ = digest_frames();
  return m;
}

void ServerHyb::emit_full(SimTime /*nominal*/) {
  auto full = build_full_report(cfg_.window_mult * cfg_.ir_interval_s);
  anchor_ = full.stamp;
  enqueue_full_report(std::move(full));

  m_ = adapt_m();
  m_history_.add(static_cast<double>(m_));
  if (m_ <= 1) return;
  // Schedule this interval's minis on an even grid after the full report.
  const double slice = cfg_.ir_interval_s / static_cast<double>(m_);
  const SimTime anchor = anchor_;
  for (unsigned j = 1; j < m_; ++j) {
    sim_.schedule_in(slice * j,
                     [this, anchor] {
                       // A newer full report supersedes these minis.
                       if (anchor_ > anchor) return;
                       enqueue_mini_report(build_mini_report(anchor_));
                     },
                     EventPriority::kProtocol);
  }
}

void ServerHyb::decorate_item(Message& msg, ItemPayload& payload) {
  attach_digest_to(msg, payload.digest);
}

void ServerHyb::decorate_data(Message& msg, DataPayload& payload) {
  attach_digest_to(msg, payload.digest);
}

}  // namespace wdc
