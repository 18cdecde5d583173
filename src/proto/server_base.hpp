#ifndef WDC_PROTO_SERVER_BASE_HPP
#define WDC_PROTO_SERVER_BASE_HPP

/// @file server_base.hpp
/// Server-side protocol machinery shared by every invalidation scheme:
///  * answering cache-miss requests with (coalesced) item broadcasts,
///  * forwarding background downlink traffic to the MAC (with a hook protocols
///    override to attach piggyback digests),
///  * report-building helpers over the database.

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "mac/broadcast_mac.hpp"
#include "proto/protocol.hpp"
#include "proto/reports.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"
#include "workload/database.hpp"
#include "workload/traffic_gen.hpp"

namespace wdc {

class ServerProtocol {
 public:
  ServerProtocol(Simulator& sim, BroadcastMac& mac, Database& db, ProtoConfig cfg);
  virtual ~ServerProtocol() = default;

  ServerProtocol(const ServerProtocol&) = delete;
  ServerProtocol& operator=(const ServerProtocol&) = delete;

  /// Begin report scheduling. Call once after wiring is complete.
  virtual void start() = 0;

  /// A cache-miss request for `item` arrived on the uplink: broadcast the item
  /// (current content), coalescing with an already-queued broadcast. Protocols
  /// customise via decorate_item(); stateful protocols (CBL) override to record
  /// the requester, then call the base.
  virtual void on_request(ClientId from, ItemId item);

  /// A background downlink frame is ready: forward it to the MAC. Protocols
  /// customise via decorate_data() (PIG/HYB attach a digest there).
  void on_downlink_frame(const TrafficFrame& frame);

  /// Scripted server crash/recovery edge from the fault layer. While down the
  /// server answers nothing and sends nothing (every suppressed action is
  /// counted); on recovery it replays its report log as one full report whose
  /// window spans the entire outage plus the normal reporting window, so
  /// surviving clients' window-coverage checks find no gap.
  void on_server_state(bool down);

  // --- accounting ---
  std::uint64_t reports_sent() const { return reports_sent_; }
  std::uint64_t minis_sent() const { return minis_sent_; }
  std::uint64_t item_broadcasts() const { return item_broadcasts_; }
  std::uint64_t coalesced_requests() const { return coalesced_; }
  Bits digest_bits() const { return digest_bits_; }
  std::uint64_t digest_frames() const { return digest_frames_; }
  double lair_deferral_s() const { return lair_deferral_s_; }
  std::uint64_t lair_deferred() const { return lair_deferred_; }
  std::uint64_t crash_suppressed() const { return crash_suppressed_; }

  const ProtoConfig& config() const { return cfg_; }

 protected:
  /// Build a TS-style full report covering (now − w·L, now].
  FullReport build_full_report(double window_s) const;
  /// Build a mini report listing updates since `anchor`.
  MiniReport build_mini_report(SimTime anchor) const;
  /// Build a piggyback digest covering (now − G, now], clipped to pig_max_ids.
  PiggyDigest build_digest() const;

  void enqueue_full_report(FullReport report);
  void enqueue_mini_report(MiniReport report);

  /// True while the server is scripted down. Subclasses with their own MAC
  /// enqueue sites (SIG/BS timers, CBL notices, PER poll acks) must gate them
  /// on crash_suppress() — the central enqueue/request paths already do.
  bool crashed() const { return down_; }
  /// Counted suppression gate: returns true (and records the suppression)
  /// exactly when the server is down.
  bool crash_suppress();

  /// Hooks to extend outgoing item broadcasts / data frames (e.g. with digests).
  /// Default: no-op. Implementations adjusting payload size must also grow
  /// `msg.bits` (and `msg.piggyback_bits` for accounting).
  virtual void decorate_item(Message& msg, ItemPayload& payload);
  virtual void decorate_data(Message& msg, DataPayload& payload);

  /// Shared digest attachment used by PIG and HYB.
  void attach_digest_to(Message& msg, std::optional<PiggyDigest>& slot);

  /// Called by the MAC's tx observer; subclasses may extend (keep calling base).
  virtual void on_transmitted(const Message& msg, std::size_t mcs, double airtime_s);

  Simulator& sim_;
  BroadcastMac& mac_;
  Database& db_;
  ProtoConfig cfg_;

  std::uint64_t reports_sent_ = 0;
  std::uint64_t minis_sent_ = 0;
  std::uint64_t item_broadcasts_ = 0;
  std::uint64_t coalesced_ = 0;
  Bits digest_bits_ = 0;
  std::uint64_t digest_frames_ = 0;
  double lair_deferral_s_ = 0.0;
  std::uint64_t lair_deferred_ = 0;

 private:
  std::unordered_set<ItemId> pending_broadcast_;
  bool down_ = false;
  SimTime crash_start_ = 0.0;
  std::uint64_t crash_suppressed_ = 0;
};

}  // namespace wdc

#endif  // WDC_PROTO_SERVER_BASE_HPP
