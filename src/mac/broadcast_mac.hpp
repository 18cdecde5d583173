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
///   invalidation schemes are fragile to.
/// * Unicast ARQ: failed unicast frames retry (head-of-class) up to max_retx.

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "channel/snr_process.hpp"
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

/// A registered listener (one per client).
struct ClientPort {
  /// The client's downlink SNR process (owned by the caller, must outlive the MAC).
  SnrProcess* link = nullptr;
  /// Is the client's radio on right now?
  std::function<bool()> is_listening;
  /// Called for every transmission completed while listening.
  std::function<void(const Reception&)> on_reception;
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
  BroadcastMac(Simulator& sim, const McsTable& table, MacConfig cfg, Rng rng);

  BroadcastMac(const BroadcastMac&) = delete;
  BroadcastMac& operator=(const BroadcastMac&) = delete;

  /// Register a client; returns its id (dense, in registration order).
  ClientId register_client(ClientPort port);

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
  double broadcast_reference_snr(SimTime t) const;

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

  struct PortEntry {
    ClientPort port;
    AmcController amc;  ///< per-destination hysteresis state for unicast
  };
  std::vector<PortEntry> ports_;
  AmcController bcast_amc_;

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
