#ifndef WDC_MAC_BROADCAST_MAC_HPP
#define WDC_MAC_BROADCAST_MAC_HPP

/// @file broadcast_mac.hpp
/// The shared downlink: one transmitter (the base station), many listeners.
///
/// * Strict-priority, FIFO-within-class transmit queues keyed by MsgKind — this is
///   where invalidation reports *compete with downlink traffic* for airtime.
/// * Link adaptation: every transmission picks an MCS at start time. Broadcast
///   messages use a coverage-percentile SNR reference over currently listening
///   clients; unicast messages use the destination's (CSI-delayed) SNR.
/// * Reception: each completed transmission is offered to every listening client
///   with an independent decode draw from the client's own SNR — a deep-faded
///   client can miss an IR, which is exactly the failure mode stateless
///   invalidation schemes are fragile to. Every listener's SNR comes from one
///   masked Downlinks pass per frame (and per broadcast MCS pick); the decode
///   draws and deliveries then run serially in client order.
/// * Unicast ARQ: failed unicast frames retry (head-of-class) up to max_retx.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "channel/downlinks.hpp"
#include "mac/message.hpp"
#include "phy/amc.hpp"
#include "phy/mcs.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "stats/time_weighted.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace wdc {

class FaultInjector;

struct MacConfig {
  AmcConfig amc;                     ///< link-adaptation settings (shared)
  double broadcast_percentile = 0.25;///< design coverage percentile of listener SNR
  unsigned max_retx = 3;             ///< unicast ARQ retry cap
};

/// A registered receiver (one per client). The MAC calls it for every
/// transmission completed while the client's listening bit is set.
class MacListener {
 public:
  virtual void on_reception(const Reception& rx) = 0;

 protected:
  ~MacListener() = default;
};

/// Per-kind MAC statistics.
struct MacKindStats {
  std::uint64_t enqueued = 0;
  std::uint64_t transmitted = 0;  ///< transmissions incl. retries
  std::uint64_t completed = 0;    ///< messages leaving the MAC (delivered/abandoned)
  std::uint64_t dropped = 0;      ///< unicast frames abandoned after max_retx
  double airtime_s = 0.0;
  Bits bits = 0;
  Summary queue_delay;            ///< enqueue → start of first transmission

  /// Fold another cell's per-kind stats into this one (sharded metrics merge;
  /// merging into a default-constructed instance is a bit-exact copy).
  void merge_from(const MacKindStats& other) {
    enqueued += other.enqueued;
    transmitted += other.transmitted;
    completed += other.completed;
    dropped += other.dropped;
    airtime_s += other.airtime_s;
    bits += other.bits;
    queue_delay.merge(other.queue_delay);
  }
};

class BroadcastMac {
 public:
  /// `links` holds client c's downlink at index c; the caller owns it and
  /// it must outlive the MAC.
  BroadcastMac(Simulator& sim, const McsTable& table, MacConfig cfg, Rng rng,
               Downlinks& links);

  BroadcastMac(const BroadcastMac&) = delete;
  BroadcastMac& operator=(const BroadcastMac&) = delete;

  /// Register a client; returns its id (dense, in registration order), which
  /// must already have a link in the MAC's Downlinks. `listener` is owned by
  /// the caller and must outlive the MAC. A new client is not listening.
  ClientId register_client(MacListener* listener);
  /// Bytes one registered client holds in the MAC: its listener pointer,
  /// unicast AMC state, listening and registered bytes, and SNR slots.
  static constexpr std::size_t bytes_per_client() {
    return sizeof(MacListener*) + sizeof(AmcController) +
           2 * sizeof(std::uint8_t) + 2 * sizeof(double);
  }

  /// The client's owner pushes every change of its radio state here; the MAC
  /// reads the bit on every fan-out, ARQ retry decision and broadcast MCS pick.
  void set_listening(ClientId c, bool on) { listening_[c] = on ? 1 : 0; }
  bool listening(ClientId c) const { return listening_[c] != 0; }

  /// Server-side observer invoked after every completed transmission (before
  /// listener delivery): protocols use it to clear pending-broadcast state and to
  /// learn the actual airtime/MCS of their reports.
  using TxObserver = std::function<void(const Message&, std::size_t mcs,
                                        double airtime_s)>;
  void set_tx_observer(TxObserver obs) { tx_observer_ = std::move(obs); }

  /// Optional fault layer (src/faults): when set, decoded receptions may be
  /// erased per client. The decode draw always happens first, so the MAC's Rng
  /// stream is identical whether or not faults then suppress the outcome.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  /// Queue a message for transmission, stamping its `seq`.
  void enqueue(Message msg);

  /// Number of queued messages of the given kind (excludes the in-flight one).
  std::size_t queued(MsgKind kind) const;
  bool busy() const { return current_.has_value(); }

  /// Coverage-reference SNR the broadcast link adaptation would use at time `t`
  /// (the percentile over listening clients). Exposed so LAIR can peek at the
  /// channel before committing a report to the queue.
  double broadcast_reference_snr(SimTime t);

  const MacKindStats& stats(MsgKind kind) const;
  /// Fraction of time the transmitter was busy, measured up to `t`.
  double busy_fraction(SimTime t) const { return busy_tw_.average(t); }
  const McsTable& table() const { return table_; }
  const MacConfig& config() const { return cfg_; }

  /// Mean MCS index used for broadcast transmissions (rate-adaptation telemetry).
  const Summary& broadcast_mcs_used() const { return bcast_mcs_; }

  /// Slot-accounting audit: every enqueued message is exactly one of queued,
  /// in flight, or completed; drop/transmit counters stay consistent; the
  /// busy-time tracker agrees with the in-flight slot. Trips a WDC_CHECK on
  /// violation; no-op when checks are compiled out.
  void audit() const;

 private:
  /// Full audits are amortised: one every kAuditPeriod mutations.
  static constexpr std::uint64_t kAuditPeriod = 64;

  void maybe_audit() const;
  struct Queued {
    Message msg;
    SimTime enqueued_at;
    unsigned attempts = 0;
  };
  struct InFlight {
    Queued q;
    std::size_t mcs;
    double airtime_s;
  };

  void try_start();
  void finish();
  std::size_t pick_mcs(const Message& msg);

  Simulator& sim_;
  const McsTable& table_;
  MacConfig cfg_;
  Rng rng_;

  std::array<std::deque<Queued>, kNumMsgKinds> queues_;
  std::optional<InFlight> current_;

  // Registered clients, indexed by ClientId.
  Downlinks& links_;
  std::vector<MacListener*> listeners_;
  std::vector<AmcController> amcs_;  ///< per-destination hysteresis for unicast
  /// Listening bytes, zero-padded to whole bank blocks: the fan-out mask.
  std::vector<std::uint8_t> listening_;
  /// Every registered client (same padding): the reference SNR's fallback
  /// mask when nobody listens.
  std::vector<std::uint8_t> registered_;
  AmcController bcast_amc_;
  /// Per-client SNRs of the latest pass, and broadcast_reference_snr's
  /// selection buffer.
  std::vector<double> snr_;
  std::vector<double> snr_scratch_;
  /// Set while finish() delivers a frame: nothing may start a transmission
  /// then, because the frame's SNRs were computed before delivery began.
  bool delivering_ = false;

  /// Sentinel for "no broadcast transmitted yet" (MCS-switch trace events
  /// compare against the previous broadcast MCS).
  static constexpr std::size_t kNoMcsYet = static_cast<std::size_t>(-1);

  std::array<MacKindStats, kNumMsgKinds> kind_stats_;
  TimeWeighted busy_tw_;
  Summary bcast_mcs_;
  std::size_t last_bcast_mcs_ = kNoMcsYet;
  TxObserver tx_observer_;
  FaultInjector* faults_ = nullptr;
  std::uint64_t last_seq_ = 0;
  mutable std::uint64_t mutations_ = 0;
};

}  // namespace wdc

#endif  // WDC_MAC_BROADCAST_MAC_HPP
