#include "proto/client_base.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "faults/fault_injector.hpp"
#include "proto/report_codec.hpp"
#include "util/check.hpp"

namespace wdc {

namespace {
/// Tolerance for content-stamp continuity comparisons (report stamps are exact
/// doubles propagated through arithmetic; keep a safety epsilon).
constexpr SimTime kEps = 1e-9;
}  // namespace

ClientProtocol::ClientProtocol(Simulator& sim, BroadcastMac& mac,
                               UplinkChannel& uplink, ServerProtocol& server,
                               const Database& oracle, ProtoConfig cfg,
                               SnrProcess* link, std::function<bool()> is_awake,
                               StatsSink& sink, Rng rng)
    : cache_(cfg.cache_capacity),
      rng_(rng),
      sink_(sink),
      cfg_(std::move(cfg)),
      sim_(sim),
      mac_(mac),
      uplink_(uplink),
      server_(server),
      oracle_(oracle),
      is_awake_(std::move(is_awake)) {
  ClientPort port;
  port.link = link;
  port.is_listening = [this] { return radio_needed(); };
  port.on_reception = [this](const Reception& rx) { on_reception(rx); };
  id_ = mac_.register_client(std::move(port));
  // Under selective tuning the radio starts ON and stays on until the first
  // report synchronises us; finish_report() then begins the doze cycle.
  tuned_on_ = true;
}

void ClientProtocol::on_query(ItemId item) {
  sink_.record_query(sim_.now());
  auto& tr = sim_.trace();
  if (tr.enabled()) tr.emit(TraceEventKind::kQuerySubmit, sim_.now(), id_, item);
  // If a request for this item is already in flight, ride on it.
  enqueue_pending(item, sim_.now(), awaiting_item(item));
}

void ClientProtocol::enqueue_pending(ItemId item, SimTime qtime, bool awaiting) {
  // decided_at starts at the enqueue instant: for queries decided later it is
  // overwritten in answer_pending(); for queries enqueued already-awaiting
  // (ride-along fetches, PER's invalid-poll path) the decision IS now.
  pending_.push_back(PendingQuery{item, qtime, sim_.now(), awaiting});
  auto& tr = sim_.trace();
  if (tr.enabled() && !awaiting)
    tr.emit(TraceEventKind::kIrWaitBegin, sim_.now(), id_, item);
}

void ClientProtocol::on_sleep_transition(bool awake) {
  note_radio_state();
  if (awake) return;  // wake-up: the next report re-synchronises us
  abandon_pending();
}

void ClientProtocol::abandon_pending() {
  auto& tr = sim_.trace();
  for (const auto& q : pending_) {
    sink_.record_dropped(q.qtime);
    if (tr.enabled())
      tr.emit(TraceEventKind::kQueryDrop, sim_.now(), id_, q.item);
  }
  pending_.clear();
  for (auto& rt : request_timers_) sim_.cancel(rt.timer);
  request_timers_.clear();
}

void ClientProtocol::on_churn(bool connected) {
  note_radio_state();
  if (!connected) {
    // Radio gone: like sleep, pending work cannot complete.
    abandon_pending();
    recovering_ = false;
    return;
  }
  // Rejoin: recovery runs until the next consistency point certifies us.
  recovering_ = true;
  rejoin_at_ = sim_.now();
  exposed_ = 0;
  if (faults_ != nullptr && faults_->rejoin_cold() && !cache_.empty()) {
    // Cold rejoin: everything held through the outage is suspect — shed it and
    // restart unsynchronised (tc_ = 0 forces the full-resync path).
    exposed_ += cache_.size();
    sink_.record_cache_drop();
    cache_.clear();
    tc_ = 0.0;
  }
}

void ClientProtocol::note_consistency_reached() {
  if (!recovering_) return;
  recovering_ = false;
  const double recovery_s = sim_.now() - rejoin_at_;
  if (faults_ != nullptr) faults_->record_recovery(id_, recovery_s, exposed_);
  auto& tr = sim_.trace();
  if (tr.enabled())
    tr.emit(TraceEventKind::kRecovery, sim_.now(), id_, kInvalidItem, recovery_s,
            static_cast<double>(exposed_));
  exposed_ = 0;
}

// ------------------------------------------------------------ radio / tuning --

bool ClientProtocol::radio_needed() const {
  if (!is_awake_()) return false;
  if (!cfg_.selective_tuning) return true;
  return tuned_on_ || !request_timers_.empty();
}

bool ClientProtocol::radio_on() const { return radio_needed(); }

double ClientProtocol::radio_on_time(SimTime now) const {
  // TimeWeighted tracks the 0/1 power state; integral = average × span.
  return radio_tw_.average(now) * now;
}

void ClientProtocol::note_radio_state() {
  radio_tw_.update(sim_.now(), radio_needed() ? 1.0 : 0.0);
}

void ClientProtocol::schedule_tune_open() {
  if (!cfg_.selective_tuning) return;
  const double L = cfg_.ir_interval_s;
  // Next grid instant strictly in the future of now + guard.
  while (L * static_cast<double>(grid_tick_ + 1) - cfg_.tune_guard_s <= sim_.now())
    ++grid_tick_;
  ++grid_tick_;
  const SimTime at = L * static_cast<double>(grid_tick_) - cfg_.tune_guard_s;
  if (tune_timer_.valid()) sim_.cancel(tune_timer_);
  tune_timer_ = sim_.schedule_at(at, [this] { tune_open(); },
                                 EventPriority::kProtocol);
}

void ClientProtocol::tune_open() {
  tuned_on_ = true;
  note_radio_state();
  // Safety close: if the expected report never decodes, give up and retry at
  // the next grid point (accounting the wasted listening).
  const SimTime deadline = cfg_.ir_interval_s * static_cast<double>(grid_tick_) +
                           report_slack() + cfg_.tune_linger_s;
  tune_timer_ = sim_.schedule_at(std::max(deadline, sim_.now()),
                                 [this] { tune_close(); },
                                 EventPriority::kProtocol);
}

void ClientProtocol::tune_close() {
  tuned_on_ = false;
  note_radio_state();
  schedule_tune_open();
}

// ---------------------------------------------------------------- reception --

void ClientProtocol::on_reception(const Reception& rx) {
  sink_.add_listen_airtime(rx.airtime_s);
  const bool is_report = rx.msg.kind == MsgKind::kInvalidationReport ||
                         rx.msg.kind == MsgKind::kMiniReport;
  if (!rx.decoded) {
    if (is_report) sink_.record_report_missed();
    return;
  }
  if (is_report && faults_ != nullptr && faults_->enabled() &&
      faults_->corrupt_downlink(id_, rx.msg.kind, sim_.now())) {
    byzantine_reception(rx);
    return;
  }
  switch (rx.msg.kind) {
    case MsgKind::kInvalidationReport:
    case MsgKind::kMiniReport:
      dispatch_report(rx.msg.kind, rx.msg.payload);
      break;
    case MsgKind::kControl:
      if (rx.msg.dest == id_) handle_control(rx.msg);
      break;
    case MsgKind::kItemData:
      handle_item(rx.msg, rx.airtime_s);
      break;
    case MsgKind::kDownlinkData:
      handle_data(rx.msg);
      break;
  }
}

void ClientProtocol::dispatch_report(MsgKind kind, const Payload& payload) {
  if (kind == MsgKind::kInvalidationReport) {
    if (const auto* full = std::get_if<FullReport>(&payload)) {
      sink_.record_report_heard();
      handle_full(*full);
    } else if (const auto* sig = std::get_if<SigReport>(&payload)) {
      sink_.record_report_heard();
      handle_sig(*sig);
    } else if (const auto* bs = std::get_if<BsReport>(&payload)) {
      sink_.record_report_heard();
      handle_bs(*bs);
    }
  } else if (const auto* mini = std::get_if<MiniReport>(&payload)) {
    sink_.record_report_heard();
    handle_mini(*mini);
  }
}

void ClientProtocol::byzantine_reception(const Reception& rx) {
  // Re-encode the payload through the wire codec so the damage hits real
  // frame bytes, not in-process object state.
  std::vector<std::uint8_t> bytes = encode_report(rx.msg.payload);
  bool accepted = false;
  Payload repaired;
  if (!bytes.empty()) {
    // Flip three bits at positions hashed purely from (time, client, kind):
    // no RNG is consumed, so a replayed schedule damages the same frame the
    // same way, bit-identically.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    };
    mix(std::bit_cast<std::uint64_t>(sim_.now()));
    mix(static_cast<std::uint64_t>(id_));
    mix(static_cast<std::uint64_t>(rx.msg.kind));
    const std::size_t nbits = bytes.size() * 8;
    for (int flip = 0; flip < 3; ++flip) {
      const std::size_t pos = static_cast<std::size_t>(h % nbits);
      bytes[pos / 8] ^= static_cast<std::uint8_t>(1u << (pos % 8));
      h = h * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
    }
    // End-to-end judgment: the codec's own validation (structure + checksum)
    // decides whether the corruption is caught.
    accepted = decode_report(bytes.data(), bytes.size(), &repaired);
  }
  if (faults_ != nullptr) faults_->record_corrupt(accepted);
  auto& tr = sim_.trace();
  if (tr.enabled())
    tr.emit(TraceEventKind::kFaultCorrupt, sim_.now(), id_, rx.msg.item,
            static_cast<double>(rx.msg.kind), accepted ? 1.0 : 0.0);
  if (!accepted) {
    // Caught ⇒ the reception degrades to an erasure, indistinguishable from a
    // decode failure at the PHY.
    sink_.record_report_missed();
    return;
  }
  // The damaged frame still decoded (the corrupt_accepted canary counts it):
  // deliver whatever survived validation, as a real system would.
  dispatch_report(rx.msg.kind, repaired);
}

void ClientProtocol::handle_item(const Message& msg, double airtime_s) {
  const auto* payload = std::get_if<ItemPayload>(&msg.payload);
  if (payload == nullptr || msg.item == kInvalidItem) return;

  const bool awaiting = awaiting_item(msg.item);
  const bool resident = cache_.peek(msg.item) != nullptr;
  if ((awaiting || resident) && should_cache()) {
    CacheEntry entry;
    entry.id = msg.item;
    entry.version = payload->version;
    entry.version_time = payload->content_time;
    entry.validated_at = payload->content_time;
    cache_.put(entry);
  }
  if (awaiting) {
    auto& tr = sim_.trace();
    if (tr.enabled())
      tr.emit(TraceEventKind::kBroadcastReceive, sim_.now(), id_, msg.item,
              airtime_s);
    complete_awaiting(msg.item, payload->version, payload->content_time,
                      airtime_s);
  }
  on_item_received(msg, *payload, awaiting);
  if (payload->digest) handle_digest(*payload->digest);
}

void ClientProtocol::handle_data(const Message& msg) {
  const auto* payload = std::get_if<DataPayload>(&msg.payload);
  if (payload != nullptr && payload->digest) handle_digest(*payload->digest);
}

// -------------------------------------------------------- report application --

void ClientProtocol::handle_full(const FullReport& report) {
  if (tc_ + kEps < report.window_start) {
    // Disconnected past the report window: nothing in the cache can be certified.
    drop_cache_and_resync(report.stamp);
    return;
  }
  for (const auto& [id, updated_at] : report.updates)
    invalidate_if_older(id, updated_at);
  finish_report(report.stamp);
}

void ClientProtocol::handle_mini(const MiniReport&) {}     // ignored by default
void ClientProtocol::handle_sig(const SigReport&) {}       // ignored by default
void ClientProtocol::handle_digest(const PiggyDigest&) {}  // ignored by default
void ClientProtocol::handle_bs(const BsReport&) {}         // ignored by default
void ClientProtocol::handle_control(const Message&) {}     // ignored by default
void ClientProtocol::on_item_received(const Message&, const ItemPayload&, bool) {}

void ClientProtocol::apply_mini(const MiniReport& report) {
  // Usable only with continuity: we must already be consistent as of the anchor
  // (the full report this mini extends) or later.
  if (tc_ + kEps < report.anchor) return;
  for (const ItemId id : report.updated) invalidate(id);
  finish_report(report.stamp);
}

void ClientProtocol::apply_digest(const PiggyDigest& digest) {
  // Invalidation from a digest is always safe (listed ids definitely changed).
  for (const ItemId id : digest.updated) invalidate(id);
  // Revalidation requires a complete digest whose horizon covers our consistency
  // point; then everything still resident is certified as of digest.stamp.
  if (digest.complete && tc_ > 0.0 && tc_ + kEps >= digest.horizon_start) {
    sink_.record_digest_applied();
    cache_.revalidate_all(digest.stamp);
    if (digest.stamp > tc_) tc_ = digest.stamp;
    answer_pending(/*via_digest=*/true);
    note_consistency_reached();
  }
}

void ClientProtocol::drop_cache_and_resync(SimTime stamp) {
  if (recovering_) exposed_ += cache_.size();
  if (!cache_.empty()) sink_.record_cache_drop();
  cache_.clear();
  finish_report(stamp);
}

void ClientProtocol::invalidate_if_older(ItemId id, SimTime updated_at) {
  const CacheEntry* entry = cache_.peek(id);
  if (entry != nullptr && entry->version_time + kEps < updated_at) invalidate(id);
}

void ClientProtocol::invalidate(ItemId id) {
  if (cache_.erase(id)) {
    cache_.note_invalidation();
    if (recovering_) ++exposed_;
  }
}

void ClientProtocol::finish_report(SimTime stamp) {
  cache_.revalidate_all(stamp);
  if (stamp > tc_) tc_ = stamp;
  answer_pending();
  note_consistency_reached();
  // Selective tuning: a consistency point ends the current listening window.
  if (cfg_.selective_tuning && tuned_on_) {
    if (tune_timer_.valid()) sim_.cancel(tune_timer_);
    tuned_on_ = false;
    note_radio_state();
    schedule_tune_open();
  }
}

// ------------------------------------------------------------------ answers --

void ClientProtocol::answer_pending(bool via_digest) {
  // Decide every pending, non-awaiting query issued at or before the consistency
  // point. Misses turn into awaiting queries (uplink request in flight).
  auto& tr = sim_.trace();
  for (auto& q : pending_) {
    if (q.awaiting || q.qtime > tc_ + kEps) continue;
    if (tr.enabled())
      tr.emit(TraceEventKind::kIrWaitEnd, sim_.now(), id_, q.item);
    CacheEntry* entry = cache_.get(q.item);
    if (entry != nullptr) {
      record_hit_answer(q.qtime, q.item, entry->version, tc_, via_digest);
      q.item = kInvalidItem;  // mark for removal
    } else {
      q.awaiting = true;
      q.decided_at = sim_.now();
      if (tr.enabled())
        tr.emit(TraceEventKind::kCacheMiss, sim_.now(), id_, q.item);
      decide_miss(q.item);
    }
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [](const PendingQuery& q) {
                                  return q.item == kInvalidItem;
                                }),
                 pending_.end());
}

void ClientProtocol::record_hit_answer(SimTime qtime, ItemId item, Version version,
                                       SimTime consistency_time, bool via_digest) {
  const double latency = sim_.now() - qtime;
  WDC_ASSERT(latency >= 0.0, "client ", id_, " answers item ", item,
             " before its query: qtime=", qtime, " now=", sim_.now());
  WDC_ASSERT(consistency_time <= sim_.now() + kEps, "client ", id_,
             " certifies item ", item, " at a future consistency point ",
             consistency_time, " (now=", sim_.now(), ")");
  // Staleness oracle: the answer claims to be the latest version as of the
  // consistency point that certified it.
  const bool stale = oracle_.version_at(item, consistency_time) != version;
  WDC_CHECK(!stale || !guarantees_consistency(), "client ", id_,
            " served a STALE hit for item ", item, ": held version ", version,
            " != oracle version at consistency point ", consistency_time);
  sink_.record_answer(qtime, latency, /*hit=*/true, stale);
  if (via_digest) sink_.record_digest_answer();
  auto& tr = sim_.trace();
  if (tr.enabled()) {
    tr.emit(stale ? TraceEventKind::kCacheStale : TraceEventKind::kCacheHit,
            sim_.now(), id_, item);
    // A hit spends its whole life waiting for the certifying report: the
    // entire latency is IR wait.
    const LatencyBreakdown bd{latency, 0.0, 0.0, 0.0};
    uint8_t flags = kTraceFlagHit;
    if (stale) flags |= kTraceFlagStale;
    if (sink_.counted(qtime)) flags |= kTraceFlagCounted;
    if (via_digest) flags |= kTraceFlagViaDigest;
    tr.answer(sim_.now(), id_, item, bd, flags);
  }
}

void ClientProtocol::decide_miss(ItemId item) {
  if (awaiting_item(item)) return;  // request already in flight
  send_request(item);
  arm_request_timer(item);
  note_radio_state();  // fetching keeps a tuned radio on
}

void ClientProtocol::await_item(ItemId item) {
  if (awaiting_item(item)) return;
  arm_request_timer(item);
  note_radio_state();
}

void ClientProtocol::send_request(ItemId item) {
  uplink_.send(id_, cfg_.request_bits, [this, item] {
    note_uplink_delivered(item);
    server_.on_request(id_, item);
  });
}

void ClientProtocol::note_uplink_delivered(ItemId item) {
  for (auto& rt : request_timers_) {
    if (rt.item == item) {
      rt.delivered_at = sim_.now();
      return;
    }
  }
}

void ClientProtocol::arm_request_timer(ItemId item) {
  // Fault-layer backoff: each re-request stretches the timeout geometrically
  // (capped). With faults disabled the plain timeout applies, bit-identically.
  unsigned attempt = 0;
  for (const auto& rt : request_timers_)
    if (rt.item == item) {
      attempt = rt.attempts;
      break;
    }
  const double timeout =
      faults_ != nullptr && faults_->enabled()
          ? faults_->retry_timeout(cfg_.request_timeout_s, attempt)
          : cfg_.request_timeout_s;
  const EventId timer = sim_.schedule_in(
      timeout,
      [this, item] {
        // The broadcast never arrived (lost or dropped): ask again.
        sink_.record_request_retry();
        auto& tr = sim_.trace();
        if (tr.enabled())
          tr.emit(TraceEventKind::kUplinkRetry, sim_.now(), id_, item);
        for (auto& rt : request_timers_)
          if (rt.item == item) {
            ++rt.attempts;
            break;
          }
        send_request(item);
        arm_request_timer(item);
      },
      EventPriority::kProtocol);
  for (auto& rt : request_timers_) {
    if (rt.item == item) {
      rt.timer = timer;
      return;
    }
  }
  request_timers_.push_back(RequestState{item, timer, -1.0});
}

void ClientProtocol::complete_awaiting(ItemId item, Version version,
                                       SimTime content_time, double airtime_s) {
  SimTime delivered_at = -1.0;
  for (auto it = request_timers_.begin(); it != request_timers_.end(); ++it) {
    if (it->item != item) continue;
    delivered_at = it->delivered_at;
    sim_.cancel(it->timer);
    request_timers_.erase(it);
    note_radio_state();
    break;
  }
  auto& tr = sim_.trace();
  for (auto& q : pending_) {
    if (!q.awaiting || q.item != item) continue;
    const double latency = sim_.now() - q.qtime;
    WDC_ASSERT(latency >= 0.0, "client ", id_, " completes a fetch of item ",
               item, " before its query: qtime=", q.qtime, " now=", sim_.now());
    const bool stale = oracle_.version_at(item, content_time) != version;
    WDC_CHECK(!stale || !guarantees_consistency(), "client ", id_,
              " served a STALE fetched copy of item ", item, ": version ",
              version, " != oracle version at content time ", content_time);
    sink_.record_answer(q.qtime, latency, /*hit=*/false, stale);
    if (tr.enabled()) {
      // Clamped monotone timestamp chain: t0 <= t1 <= t2 <= t3 <= now, so the
      // four components telescope exactly to the measured latency.
      const SimTime now = sim_.now();
      const SimTime t0 = q.qtime;
      const SimTime t1 = std::clamp(q.decided_at, t0, now);
      const SimTime t2 =
          std::clamp(delivered_at < 0.0 ? t1 : delivered_at, t1, now);
      const SimTime t3 = std::clamp(now - airtime_s, t2, now);
      const LatencyBreakdown bd{t1 - t0, t2 - t1, t3 - t2, now - t3};
      uint8_t flags = 0;
      if (stale) flags |= kTraceFlagStale;
      if (sink_.counted(q.qtime)) flags |= kTraceFlagCounted;
      tr.answer(now, id_, item, bd, flags);
    }
    q.item = kInvalidItem;
  }
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [](const PendingQuery& q) {
                                  return q.item == kInvalidItem;
                                }),
                 pending_.end());
}

}  // namespace wdc
