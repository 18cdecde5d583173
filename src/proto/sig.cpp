#include "proto/sig.hpp"

#include <unordered_set>

namespace wdc {

void ServerSig::start() {
  const double L = cfg_.ir_interval_s;
  timer_ = std::make_unique<PeriodicTimer>(
      sim_, /*first=*/L, /*period=*/L, [this](std::uint64_t) {
        if (crash_suppress()) return;
        SigReport rep;
        rep.stamp = sim_.now();
        rep.window_start = sim_.now() - cfg_.sig_window_mult * cfg_.ir_interval_s;
        rep.updated = db_.updated_between(rep.window_start, rep.stamp);
        rep.fp_prob = cfg_.sig_fp_prob;

        Message msg;
        msg.kind = MsgKind::kInvalidationReport;
        msg.bits = rep.wire_bits(cfg_, db_.num_items());
        msg.payload = std::move(rep);
        ++reports_sent_;
        mac_.enqueue(std::move(msg));
      });
}

void ClientSig::handle_sig(const SigReport& report) {
  if (tc_ + 1e-9 < report.window_start) {
    drop_cache_and_resync(report.stamp);
    return;
  }
  // True updates: always detected by the signature comparison.
  std::unordered_set<ItemId> changed(report.updated.begin(), report.updated.end());
  for (const ItemId id : report.updated) invalidate(id);
  // Signature collisions: unchanged resident entries are diagnosed as updated with
  // probability fp_prob, costing a needless refetch on the next query.
  for (const ItemId id : cache_.resident()) {
    if (changed.count(id) > 0) continue;
    if (rng_.bernoulli(report.fp_prob)) {
      invalidate(id);
      sink_.record_false_invalidation();
    }
  }
  finish_report(report.stamp);
}

}  // namespace wdc
