#include "proto/bs.hpp"

#include <algorithm>

namespace wdc {

void ServerBs::start() {
  const double L = cfg_.ir_interval_s;
  timer_ = std::make_unique<PeriodicTimer>(
      sim_, /*first=*/L, /*period=*/L, [this](std::uint64_t) {
        if (crash_suppress()) return;
        BsReport rep;
        rep.stamp = sim_.now();
        // Boundaries stamp − L·2^(levels−1) … stamp − L, ascending (oldest first).
        const unsigned levels = cfg_.bs_levels > 0 ? cfg_.bs_levels : 1;
        for (unsigned i = levels; i >= 1; --i)
          rep.boundaries.push_back(sim_.now() -
                                   cfg_.ir_interval_s * double(1u << (i - 1)));
        for (const ItemId id :
             db_.updated_between(rep.boundaries.front(), rep.stamp))
          rep.updates.emplace_back(id, db_.last_update(id));

        Message msg;
        msg.kind = MsgKind::kInvalidationReport;
        msg.bits = rep.wire_bits(cfg_, db_.num_items());
        msg.payload = std::move(rep);
        ++reports_sent_;
        mac_.enqueue(std::move(msg));
      });
}

void ClientBs::handle_bs(const BsReport& report) {
  if (report.boundaries.empty()) return;
  if (tc_ + 1e-9 < report.boundaries.front()) {
    // Disconnected past even the oldest window: resynchronise from scratch.
    drop_cache_and_resync(report.stamp);
    return;
  }
  // Quantisation: for each updated item the receiver learns only the dyadic
  // interval (B[m], B[m+1]] containing its latest update (B[last]..stamp for the
  // newest). Keep an entry only when its fetch provably post-dates that whole
  // interval; otherwise invalidate conservatively.
  for (const auto& [id, updated_at] : report.updates) {
    const CacheEntry* entry = cache_.peek(id);
    if (entry == nullptr) continue;
    // Upper edge of the update's dyadic interval.
    const auto upper = std::upper_bound(report.boundaries.begin(),
                                        report.boundaries.end(), updated_at);
    const SimTime interval_top =
        upper != report.boundaries.end() ? *upper : report.stamp;
    if (entry->version_time + 1e-9 < interval_top) {
      // Telemetry: an over-invalidation is one TS's exact timestamps would have
      // avoided (the copy already contains the update).
      const bool over = entry->version_time + 1e-9 >= updated_at;
      invalidate(id);
      if (over) sink_.record_false_invalidation();
    }
  }
  finish_report(report.stamp);
}

}  // namespace wdc
