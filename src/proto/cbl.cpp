#include "proto/cbl.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace wdc {

// --------------------------------------------------------------------- server --

ServerCbl::ServerCbl(Simulator& sim, BroadcastMac& mac, Database& db,
                     ProtoConfig cfg)
    : ServerProtocol(sim, mac, db, cfg) {
  db_.set_update_observer(
      [this](ItemId item, SimTime when) { on_update(item, when); });
}

void ServerCbl::prune(ItemId item, SimTime now) {
  const auto it = leases_.find(item);
  if (it == leases_.end()) return;
  for (auto holder = it->second.begin(); holder != it->second.end();) {
    if (holder->second <= now) {
      holder = it->second.erase(holder);
      --outstanding_;
    } else {
      ++holder;
    }
  }
  if (it->second.empty()) leases_.erase(it);
}

void ServerCbl::on_request(ClientId from, ItemId item) {
  if (crash_suppress()) return;  // down: no lease granted, no broadcast
  prune(item, sim_.now());
  auto& holders = leases_[item];
  const auto [it, inserted] =
      holders.insert_or_assign(from, sim_.now() + cfg_.cbl_lease_s);
  (void)it;
  if (inserted) {
    ++outstanding_;
    peak_leases_ = std::max<std::uint64_t>(peak_leases_, outstanding_);
  }
  ServerProtocol::on_request(from, item);
}

void ServerCbl::decorate_item(Message& /*msg*/, ItemPayload& payload) {
  payload.lease_s = cfg_.cbl_lease_s;
}

void ServerCbl::on_update(ItemId item, SimTime when) {
  prune(item, when);
  const auto it = leases_.find(item);
  if (it == leases_.end()) return;
  // Notice order follows the unordered holder map, and notices enter the MAC
  // queue in that order — observable downstream, so the lint flag is real.
  // But the order is deterministic for a fixed libstdc++ + insertion history
  // (which the determinism contract already pins), and sorting holders here
  // would shuffle MAC service order and break the pinned golden digests.
  // Keep the annotation until the goldens are next re-pinned (jakes_v2),
  // then switch to an ordered view in the same PR.
  // wdc-lint: allow(ordered-iteration)
  for (const auto& [client, expiry] : it->second) {
    // A crashed server still revokes leases (its own bookkeeping survives the
    // restart) but cannot notify the holders — CBL's best-effort consistency
    // degrades exactly here, and every unsent notice is counted.
    if (crash_suppress()) continue;
    Message msg;
    msg.kind = MsgKind::kControl;
    msg.dest = client;
    msg.item = item;
    msg.bits = cfg_.cbl_notice_bits;
    msg.payload = InvalidateNotice{item, when};
    ++notices_sent_;
    mac_.enqueue(std::move(msg));
  }
  WDC_ASSERT(outstanding_ >= it->second.size(), "revoking ", it->second.size(),
             " leases on item ", item, " with only ", outstanding_,
             " outstanding");
  outstanding_ -= it->second.size();
  leases_.erase(it);
  audit();
}

void ServerCbl::audit() const {
#if WDC_CHECKS_ENABLED
  std::size_t recorded = 0;
  for (const auto& [item, holders] : leases_) {
    WDC_CHECK(!holders.empty(), "item ", item,
              " kept in the lease table with no holders");
    recorded += holders.size();
  }
  WDC_CHECK(recorded == outstanding_, "outstanding-lease counter ", outstanding_,
            " != ", recorded, " recorded holders");
  WDC_CHECK(peak_leases_ >= outstanding_, "peak-lease watermark ", peak_leases_,
            " below the current count ", outstanding_);
#endif
}

// --------------------------------------------------------------------- client --

bool ClientCbl::holds_lease(ItemId item) const {
  const auto it = leases_.find(item);
  return it != leases_.end() && it->second > sim_.now();
}

void ClientCbl::on_query(ItemId item) {
  sink_.record_query(sim_.now());
  const CacheEntry* entry = cache_.peek(item);
  if (entry != nullptr && holds_lease(item)) {
    // Zero-wait answer: the lease contract says the server would have notified
    // us of any update. The oracle charges every violation of that promise
    // (notice in flight / lost / sent while we dozed) as a stale serve.
    record_hit_answer(sim_.now(), item, entry->version, sim_.now());
    return;
  }
  // No usable lease: fetch like NC (shares in-flight requests).
  const bool already = awaiting_item(item);
  enqueue_pending(item, sim_.now(), /*awaiting=*/true);
  if (!already) decide_miss(item);
}

void ClientCbl::on_sleep_transition(bool awake) {
  ClientProtocol::on_sleep_transition(awake);
  // Asleep we cannot hear invalidation notices: every lease is void. (The
  // server keeps sending notices to us in vain — the realistic failure mode.)
  if (!awake) leases_.clear();
}

void ClientCbl::handle_control(const Message& msg) {
  const auto* notice = std::get_if<InvalidateNotice>(&msg.payload);
  if (notice == nullptr) return;
  invalidate(notice->item);
  leases_.erase(notice->item);
}

void ClientCbl::on_item_received(const Message& msg, const ItemPayload& payload,
                                 bool fetched) {
  // Leases are granted to requesters only (the server recorded us at request
  // time); snoopers may cache but must not claim the callback promise.
  if (fetched && payload.lease_s > 0.0 && msg.item != kInvalidItem)
    note_lease(msg.item, payload.content_time + payload.lease_s);
}

}  // namespace wdc
