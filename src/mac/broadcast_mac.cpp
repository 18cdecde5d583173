#include "mac/broadcast_mac.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "faults/fault_injector.hpp"

namespace wdc {

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kInvalidationReport: return "IR";
    case MsgKind::kMiniReport: return "UIR";
    case MsgKind::kControl: return "CTRL";
    case MsgKind::kItemData: return "ITEM";
    case MsgKind::kDownlinkData: return "DATA";
  }
  return "?";
}

BroadcastMac::BroadcastMac(Simulator& sim, const McsTable& table, MacConfig cfg,
                           Rng rng)
    : sim_(sim), table_(table), cfg_(cfg), rng_(rng), bcast_amc_(table, cfg.amc) {
  if (!(cfg_.broadcast_percentile >= 0.0 && cfg_.broadcast_percentile <= 1.0))
    throw std::invalid_argument("MacConfig: broadcast_percentile in [0,1]");
}

ClientId BroadcastMac::register_client(ClientPort port) {
  if (port.link == nullptr || !port.is_listening || !port.on_reception)
    throw std::invalid_argument("BroadcastMac: incomplete ClientPort");
  ports_.push_back(PortEntry{std::move(port), AmcController(table_, cfg_.amc)});
  return static_cast<ClientId>(ports_.size() - 1);
}

void BroadcastMac::enqueue(Message msg) {
  WDC_ASSERT(msg.is_broadcast() || msg.dest < ports_.size(),
             "unicast ", to_string(msg.kind), " to unregistered client ", msg.dest);
  const auto k = static_cast<std::size_t>(msg.kind);
  kind_stats_[k].enqueued++;
  msg.seq = ++last_seq_;
  queues_[k].push_back(Queued{std::move(msg), sim_.now(), 0});
  try_start();
  maybe_audit();
}

std::size_t BroadcastMac::queued(MsgKind kind) const {
  return queues_[static_cast<std::size_t>(kind)].size();
}

double BroadcastMac::broadcast_reference_snr(SimTime t) const {
  // p-th percentile of listening clients' instantaneous SNR. With nobody
  // listening, fall back to the full population so the reference stays defined.
  std::vector<double> snrs;
  snrs.reserve(ports_.size());
  for (const auto& pe : ports_)
    if (pe.port.is_listening()) snrs.push_back(pe.port.link->snr_db(t));
  if (snrs.empty())
    for (const auto& pe : ports_) snrs.push_back(pe.port.link->snr_db(t));
  if (snrs.empty()) return 0.0;
  std::sort(snrs.begin(), snrs.end());
  const double pos = cfg_.broadcast_percentile * static_cast<double>(snrs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, snrs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return snrs[lo] * (1.0 - frac) + snrs[hi] * frac;
}

std::size_t BroadcastMac::pick_mcs(const Message& msg) {
  const SimTime when = std::max(0.0, sim_.now() - cfg_.amc.csi_delay_s);
  if (msg.is_broadcast())
    return bcast_amc_.select_from_snr(broadcast_reference_snr(when), msg.bits);
  auto& pe = ports_.at(msg.dest);
  return pe.amc.select_from_snr(pe.port.link->snr_db(when), msg.bits);
}

void BroadcastMac::try_start() {
  if (current_.has_value()) return;
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    Queued q = std::move(queue.front());
    queue.pop_front();
    const auto k = static_cast<std::size_t>(q.msg.kind);
    if (q.attempts == 0)
      kind_stats_[k].queue_delay.add(sim_.now() - q.enqueued_at);
    const std::size_t mcs = pick_mcs(q.msg);
    const double airtime = table_.airtime_s(q.msg.bits, mcs);
    if (q.msg.is_broadcast()) {
      bcast_mcs_.add(static_cast<double>(mcs));
      auto& tr = sim_.trace();
      if (tr.enabled() && last_bcast_mcs_ != kNoMcsYet && mcs != last_bcast_mcs_)
        tr.emit(TraceEventKind::kMcsSwitch, sim_.now(), kInvalidClient,
                kInvalidItem, static_cast<double>(mcs),
                static_cast<double>(last_bcast_mcs_));
      last_bcast_mcs_ = mcs;
    }
    current_ = InFlight{std::move(q), mcs, airtime};
    busy_tw_.update(sim_.now(), 1.0);
    sim_.schedule_in(airtime, [this] { finish(); }, EventPriority::kTxDone);
    return;
  }
}

void BroadcastMac::finish() {
  WDC_ASSERT(current_.has_value(), "transmission-complete with no frame in flight");
  InFlight fl = std::move(*current_);
  current_.reset();
  busy_tw_.update(sim_.now(), 0.0);

  WDC_ASSERT(fl.airtime_s > 0.0, "in-flight ", to_string(fl.q.msg.kind),
             " frame with non-positive airtime ", fl.airtime_s);
  WDC_ASSERT(fl.q.attempts == 0 || fl.q.attempts < cfg_.max_retx,
             "frame finished retry ", fl.q.attempts, " past the ARQ cap ",
             cfg_.max_retx);
  const auto k = static_cast<std::size_t>(fl.q.msg.kind);
  kind_stats_[k].transmitted++;
  kind_stats_[k].airtime_s += fl.airtime_s;
  kind_stats_[k].bits += fl.q.msg.bits;

  if (tx_observer_) tx_observer_(fl.q.msg, fl.mcs, fl.airtime_s);

  // Offer the completed transmission to every listening client with an
  // independent decode draw (broadcast medium: everyone overhears everything).
  bool dest_decoded = false;
  const SimTime t = sim_.now();
  for (std::size_t c = 0; c < ports_.size(); ++c) {
    auto& pe = ports_[c];
    if (!pe.port.is_listening()) continue;
    const double snr = pe.port.link->snr_db(t);
    const double p_ok = table_.decode_prob(fl.q.msg.bits, fl.mcs, snr);
    const bool decoded = rng_.bernoulli(p_ok);
    // Fault erasure applies AFTER the (unconditional) decode draw: an erased
    // reception looks exactly like a PHY decode failure downstream, and a
    // faulted unicast frame re-enters ARQ like any other loss.
    const bool faulted = faults_ != nullptr && faults_->enabled() && decoded &&
                         faults_->drop_downlink(static_cast<ClientId>(c),
                                                fl.q.msg.kind, t);
    const bool ok = decoded && !faulted;
    if (faulted) {
      auto& tr = sim_.trace();
      if (tr.enabled())
        tr.emit(TraceEventKind::kFaultDownlinkDrop, t,
                static_cast<ClientId>(c), fl.q.msg.item,
                static_cast<double>(fl.q.msg.kind));
    }
    if (ok && c == fl.q.msg.dest) dest_decoded = true;
    const Reception rx{fl.q.msg, ok, fl.airtime_s, fl.mcs};
    pe.port.on_reception(rx);
  }

  // Unicast ARQ: retry failed frames at the head of their class.
  if (!fl.q.msg.is_broadcast() && !dest_decoded) {
    const bool dest_listening =
        fl.q.msg.dest < ports_.size() && ports_[fl.q.msg.dest].port.is_listening();
    if (dest_listening && fl.q.attempts + 1 < cfg_.max_retx) {
      fl.q.attempts++;
      queues_[k].push_front(std::move(fl.q));
    } else {
      kind_stats_[k].dropped++;
      kind_stats_[k].completed++;
    }
  } else {
    kind_stats_[k].completed++;
  }

  try_start();
  maybe_audit();
}

void BroadcastMac::maybe_audit() const {
#if WDC_CHECKS_ENABLED
  if ((++mutations_ % kAuditPeriod) == 0) audit();
#endif
}

void BroadcastMac::audit() const {
#if WDC_CHECKS_ENABLED
  const auto in_flight_kind =
      current_.has_value() ? static_cast<std::size_t>(current_->q.msg.kind)
                           : kNumMsgKinds;
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    const auto& st = kind_stats_[k];
    const std::uint64_t in_system =
        queues_[k].size() + (k == in_flight_kind ? 1u : 0u);
    // Conservation: every enqueued message is queued, in flight, or completed.
    WDC_CHECK(st.enqueued == in_system + st.completed, to_string(MsgKind(k)),
              ": enqueued=", st.enqueued, " but queued=", queues_[k].size(),
              " + in-flight=", (k == in_flight_kind ? 1 : 0),
              " + completed=", st.completed);
    WDC_CHECK(st.dropped <= st.completed, to_string(MsgKind(k)), ": dropped=",
              st.dropped, " exceeds completed=", st.completed);
    WDC_CHECK(st.transmitted + in_system >= st.enqueued, to_string(MsgKind(k)),
              ": transmitted=", st.transmitted, " too small for enqueued=",
              st.enqueued, " with ", in_system, " in the system");
    WDC_CHECK(st.queue_delay.count() <= st.enqueued, to_string(MsgKind(k)),
              ": ", st.queue_delay.count(), " first-transmission samples for ",
              st.enqueued, " enqueued messages");
  }
  // The busy-time tracker mirrors the transmitter slot.
  WDC_CHECK((busy_tw_.current() != 0.0) == current_.has_value(),
            "busy tracker at ", busy_tw_.current(), " with in-flight=",
            current_.has_value());
  if (current_.has_value())
    WDC_CHECK(current_->q.msg.is_broadcast() ||
                  current_->q.msg.dest < ports_.size(),
              "in-flight unicast frame to unregistered client ",
              current_->q.msg.dest);
#endif
}

const MacKindStats& BroadcastMac::stats(MsgKind kind) const {
  return kind_stats_[static_cast<std::size_t>(kind)];
}

}  // namespace wdc
