#include "proto/baselines.hpp"

namespace wdc {

// ----------------------------------------------------------------------- NC --

void ClientNc::on_query(ItemId item) {
  sink_.record_query(sim_.now());
  auto& tr = sim_.trace();
  if (tr.enabled())
    tr.emit(TraceEventKind::kQuerySubmit, sim_.now(), id(), item);
  // Fetch immediately; no cache, no consistency wait. Multiple queries for the
  // same item share one in-flight request.
  const bool already = awaiting_item(item);
  enqueue_pending(item, sim_.now(), /*awaiting=*/true);
  if (!already) decide_miss(item);
}

// ---------------------------------------------------------------------- PER --

void ServerPer::on_poll(ClientId from, ItemId item, Version version) {
  if (crash_suppress()) return;  // unanswered poll; the client's timer re-asks
  ++polls_;
  const bool valid = db_.version(item) == version;
  if (valid) ++poll_hits_;

  Message msg;
  msg.kind = MsgKind::kControl;
  msg.dest = from;
  msg.item = item;
  msg.bits = cfg_.poll_ack_bits;
  msg.payload = PollAck{item, db_.version(item), sim_.now(), valid};
  mac_.enqueue(std::move(msg));

  // Poll miss ⇒ the client needs the fresh copy: push the broadcast unprompted.
  if (!valid) on_request(from, item);
}

void ClientPer::on_query(ItemId item) {
  sink_.record_query(sim_.now());
  auto& tr = sim_.trace();
  if (tr.enabled())
    tr.emit(TraceEventKind::kQuerySubmit, sim_.now(), id(), item);
  const CacheEntry* entry = cache_.peek(item);
  if (entry == nullptr) {
    // Plain miss: fetch (shares an in-flight request like NC).
    const bool already = awaiting_item(item);
    enqueue_pending(item, sim_.now(), /*awaiting=*/true);
    if (!already) decide_miss(item);
    return;
  }
  // Cached: validate this read with an uplink poll.
  auto& waiting = polls_in_flight_[item];
  waiting.push_back(sim_.now());
  if (waiting.size() > 1) return;  // a poll for this item is already out
  auto* per_server = dynamic_cast<ServerPer*>(&server());
  if (per_server == nullptr)
    throw std::logic_error("ClientPer requires ServerPer");
  const Version polled = entry->version;
  const ItemId polled_item = item;
  uplink().send(id(), cfg_.request_bits, [per_server, me = id(), polled_item,
                                          polled] {
    per_server->on_poll(me, polled_item, polled);
  });
}

void ClientPer::on_sleep_transition(bool awake) {
  ClientProtocol::on_sleep_transition(awake);
  if (awake) return;
  // Reads waiting on poll verdicts are abandoned like any pending query.
  // The iteration order over the unordered map reaches the drop accounting
  // and the trace stream, but every per-entry effect is order-insensitive
  // (record_dropped is a warmup-gated counter bump, never a float
  // accumulation), and the golden digests are pinned against the current
  // libstdc++ order — re-ordering here would break bit-identity for nothing.
  // Revisit when the goldens are next re-pinned (jakes_v2).
  auto& tr = sim_.trace();
  // wdc-lint: allow(ordered-iteration)
  for (const auto& [item, qtimes] : polls_in_flight_)
    for (const SimTime qtime : qtimes) {
      sink_.record_dropped(qtime);
      if (tr.enabled())
        tr.emit(TraceEventKind::kQueryDrop, sim_.now(), id(), item);
    }
  polls_in_flight_.clear();
}

void ClientPer::handle_control(const Message& msg) {
  const auto* ack = std::get_if<PollAck>(&msg.payload);
  if (ack == nullptr) return;
  const auto waiting = polls_in_flight_.find(ack->item);
  if (waiting == polls_in_flight_.end()) return;
  const std::vector<SimTime> qtimes = std::move(waiting->second);
  polls_in_flight_.erase(waiting);

  if (ack->valid) {
    // The server certified our copy as of content_time: answer every read that
    // was waiting on this poll.
    if (CacheEntry* entry = cache_.get(ack->item)) {
      entry->validated_at = ack->content_time;
      for (const SimTime qtime : qtimes)
        record_hit_answer(qtime, ack->item, entry->version, ack->content_time);
      return;
    }
  }
  // Invalid (or the entry vanished): the server is already pushing the item.
  invalidate(ack->item);
  for (const SimTime qtime : qtimes)
    enqueue_pending(ack->item, qtime, /*awaiting=*/true);
  await_item(ack->item);
}

}  // namespace wdc
