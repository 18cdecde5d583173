#include "proto/server_base.hpp"

#include <utility>

#include "util/check.hpp"

namespace wdc {

ServerProtocol::ServerProtocol(Simulator& sim, BroadcastMac& mac, Database& db,
                               ProtoConfig cfg)
    : sim_(sim), mac_(mac), db_(db), cfg_(std::move(cfg)) {
  mac_.set_tx_observer([this](const Message& msg, std::size_t mcs, double airtime) {
    on_transmitted(msg, mcs, airtime);
  });
}

void ServerProtocol::on_request(ClientId from, ItemId item) {
  if (crash_suppress()) return;  // a dead server hears nothing
  auto& tr = sim_.trace();
  if (tr.enabled())
    tr.emit(TraceEventKind::kUplinkDeliver, sim_.now(), from, item);
  if (pending_broadcast_.count(item) > 0) {
    ++coalesced_;
    return;  // a broadcast of this item is already queued; the requester snoops it
  }
  pending_broadcast_.insert(item);
  ItemPayload payload;
  payload.version = db_.version(item);
  payload.content_time = sim_.now();

  Message msg;
  msg.kind = MsgKind::kItemData;
  msg.bits = cfg_.item_header_bits + db_.item_bits(item);
  msg.item = item;
  msg.version = payload.version;
  decorate_item(msg, payload);
  msg.payload = std::move(payload);
  ++item_broadcasts_;
  mac_.enqueue(std::move(msg));
}

void ServerProtocol::on_downlink_frame(const TrafficFrame& frame) {
  if (crash_suppress()) return;
  DataPayload payload;
  Message msg;
  msg.kind = MsgKind::kDownlinkData;
  msg.dest = frame.dest;
  msg.bits = cfg_.data_header_bits + frame.bits;
  decorate_data(msg, payload);
  msg.payload = std::move(payload);
  mac_.enqueue(std::move(msg));
}

void ServerProtocol::decorate_item(Message&, ItemPayload&) {}
void ServerProtocol::decorate_data(Message&, DataPayload&) {}

void ServerProtocol::attach_digest_to(Message& msg,
                                      std::optional<PiggyDigest>& slot) {
  slot = build_digest();
  const Bits extra = slot->wire_bits(cfg_);
  msg.bits += extra;
  msg.piggyback_bits += extra;
  digest_bits_ += extra;
  ++digest_frames_;
}

FullReport ServerProtocol::build_full_report(double window_s) const {
  WDC_ASSERT(window_s > 0.0, "full report with non-positive window ", window_s);
  FullReport rep;
  rep.stamp = sim_.now();
  rep.window_start = sim_.now() - window_s;
  for (const ItemId id : db_.updated_between(rep.window_start, rep.stamp)) {
    const SimTime at = db_.last_update(id);
    WDC_CHECK(at <= rep.stamp, "report lists item ", id,
              " updated in the future: ", at, " > stamp ", rep.stamp);
    rep.updates.emplace_back(id, at);
  }
  return rep;
}

MiniReport ServerProtocol::build_mini_report(SimTime anchor) const {
  WDC_ASSERT(anchor <= sim_.now(), "mini report anchored in the future: anchor=",
             anchor, " now=", sim_.now());
  MiniReport rep;
  rep.stamp = sim_.now();
  rep.anchor = anchor;
  rep.updated = db_.updated_between(anchor, rep.stamp);
  return rep;
}

PiggyDigest ServerProtocol::build_digest() const {
  PiggyDigest digest;
  digest.stamp = sim_.now();
  digest.horizon_start = sim_.now() - cfg_.pig_horizon_s;
  digest.updated = db_.updated_between(digest.horizon_start, digest.stamp);
  if (digest.updated.size() > cfg_.pig_max_ids) {
    // Keep the most recent ids (tail of the chronological list): recency maximises
    // the chance the digest still covers entries validated at the last report.
    digest.updated.erase(digest.updated.begin(),
                         digest.updated.end() - cfg_.pig_max_ids);
    digest.complete = false;
  }
  WDC_CHECK(!digest.complete || digest.updated.size() <= cfg_.pig_max_ids,
            "complete digest with ", digest.updated.size(),
            " ids over the capacity ", cfg_.pig_max_ids);
  return digest;
}

bool ServerProtocol::crash_suppress() {
  if (!down_) return false;
  ++crash_suppressed_;
  return true;
}

void ServerProtocol::on_server_state(bool down) {
  WDC_ASSERT(down != down_, "server crash/recovery edge repeated: down=", down);
  down_ = down;
  if (down) {
    crash_start_ = sim_.now();
    return;
  }
  // Report-log replay: the database is the log (it keeps every update time),
  // so recovery is one full report spanning the outage plus the normal
  // reporting window. Clients that slept through less than that see full
  // window coverage and recover without a Barbara–Imielinski cache drop.
  const double window =
      (sim_.now() - crash_start_) + cfg_.window_mult * cfg_.ir_interval_s;
  enqueue_full_report(build_full_report(window));
}

void ServerProtocol::enqueue_full_report(FullReport report) {
  if (crash_suppress()) return;
  Message msg;
  msg.kind = MsgKind::kInvalidationReport;
  msg.bits = report.wire_bits(cfg_);
  msg.payload = std::move(report);
  ++reports_sent_;
  mac_.enqueue(std::move(msg));
}

void ServerProtocol::enqueue_mini_report(MiniReport report) {
  if (crash_suppress()) return;
  Message msg;
  msg.kind = MsgKind::kMiniReport;
  msg.bits = report.wire_bits(cfg_);
  msg.payload = std::move(report);
  ++minis_sent_;
  mac_.enqueue(std::move(msg));
}

void ServerProtocol::on_transmitted(const Message& msg, std::size_t /*mcs*/,
                                    double /*airtime_s*/) {
  if (msg.kind == MsgKind::kItemData && msg.item != kInvalidItem)
    pending_broadcast_.erase(msg.item);
}

}  // namespace wdc
