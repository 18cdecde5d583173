#ifndef WDC_PROTO_CLIENT_BASE_HPP
#define WDC_PROTO_CLIENT_BASE_HPP

/// @file client_base.hpp
/// Client-side protocol machinery shared by every invalidation scheme.
///
/// ## Query discipline (classic latency-for-consistency)
/// A query is queued until the next *consistency point* — a report (or, for
/// PIG/HYB, a complete piggyback digest) whose content stamp is at or after the
/// query time. At that point:
///   * the item is resident (the report just certified it) → HIT, answered now;
///   * absent → MISS: an uplink request goes out and the query completes when the
///     item broadcast arrives (re-requested after `request_timeout_s`).
/// The NC/PER baselines override on_query() with their own immediate disciplines.
///
/// ## Consistency points are content-stamped
/// `tc_` advances to the report's *content* stamp, never the reception time, so
/// MAC queueing delay (including LAIR's deliberate sliding) cannot produce stale
/// answers. A staleness oracle (read-only peek at the server database) verifies
/// the guarantee; tests assert zero violations for every scheme.
///
/// ## Sleep
/// While asleep the radio is off: no receptions, queries are not generated, and
/// pending queries are dropped (counted). Recovery after wake-up is the
/// per-protocol window/gap logic in handle_full()/handle_mini().
///
/// ## Selective tuning (energy)
/// With `cfg.selective_tuning` the radio also dozes *between* reports: it powers
/// on `tune_guard_s` before each expected full-report instant and off again once
/// a report is applied (or after `report_slack() + tune_linger_s`). Fetching an
/// item keeps the radio on. Doze time is the classic IR energy win; the cost is
/// deafness to mini reports and digests between grid points.

#include <vector>

#include "cache/lru_cache.hpp"
#include "mac/broadcast_mac.hpp"
#include "mac/uplink.hpp"
#include "proto/protocol.hpp"
#include "proto/reports.hpp"
#include "proto/server_base.hpp"
#include "proto/stats_sink.hpp"
#include "sim/simulator.hpp"
#include "stats/time_weighted.hpp"
#include "util/rng.hpp"
#include "workload/database.hpp"

namespace wdc {

class FaultInjector;

class ClientProtocol : private MacListener {
 public:
  /// Registers the client with the MAC. `oracle` is the server database, used
  /// exclusively for staleness verification (never for protocol decisions).
  ClientProtocol(Simulator& sim, BroadcastMac& mac, UplinkChannel& uplink,
                 ServerProtocol& server, const Database& oracle, ProtoConfig cfg,
                 StatsSink& sink, Rng rng);
  virtual ~ClientProtocol() = default;

  /// Heap bytes the constructor reserves (the request-timer room).
  static std::size_t heap_bytes_at_construction();

  ClientProtocol(const ClientProtocol&) = delete;
  ClientProtocol& operator=(const ClientProtocol&) = delete;

  /// A query from this client's application (QueryGenerator). Default: queue it
  /// until the next consistency point (IR discipline). NC/PER override.
  virtual void on_query(ItemId item);

  /// Sleep-model edge. Engine wires SleepModel::on_transition here. Overrides
  /// must call the base implementation.
  virtual void on_sleep_transition(bool awake);

  /// Churn edge from the fault layer (src/faults). Disconnecting abandons
  /// pending work like sleep does; rejoining starts the recovery clock. The
  /// cache disposition follows FaultConfig::rejoin — `cold` restarts from an
  /// empty, unsynchronised cache; `suspect` keeps entries and lets the next
  /// report decide (covered window → invalidate-and-certify; gap too long →
  /// Barbara–Imielinski full-cache drop via handle_full's window check).
  void on_churn(bool connected);

  /// Optional fault layer: enables backoff on re-requests and receives the
  /// recovery telemetry. The engine sets this before the simulation starts.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  ClientId id() const { return id_; }
  const LruCache& cache() const { return cache_; }
  std::size_t pending_queries() const { return pending_.size(); }

  /// Whether this scheme promises zero stale answers. Every IR-family scheme
  /// does; CBL is best-effort (lost notices open staleness windows) and opts
  /// out. Under WDC checks, a stale answer from a guaranteeing scheme trips a
  /// WDC_CHECK at answer time instead of merely counting in the stats.
  virtual bool guarantees_consistency() const { return true; }

  /// Awake and not churned away: the application issues queries.
  bool reachable() const { return awake_ && connected_; }
  /// True when the receiver is powered: reachable, and — under selective
  /// tuning — inside a tuning window or fetching an item.
  bool radio_on() const;
  /// Cumulative powered-radio time up to `now` (energy accounting).
  double radio_on_time(SimTime now) const;

 protected:
  // --- per-protocol report handlers ---
  /// Full-report semantics. Default = TS family: drop the cache when the report's
  /// window does not cover this client's consistency point; otherwise invalidate
  /// listed items whose copies predate the listed update time.
  virtual void handle_full(const FullReport& report);
  virtual void handle_mini(const MiniReport& report);
  virtual void handle_sig(const SigReport& report);
  virtual void handle_digest(const PiggyDigest& digest);
  virtual void handle_bs(const BsReport& report);
  /// Unicast control messages (PER poll acks, CBL notices). Default: ignore.
  virtual void handle_control(const Message& msg);

  /// Called after an item broadcast is processed. `fetched` is true when this
  /// client had requested the item (its awaiting queries were just answered).
  /// CBL uses it to record leases. Default: no-op.
  virtual void on_item_received(const Message& msg, const ItemPayload& payload,
                                bool fetched);

  /// Items fetched from broadcasts enter the cache when true (NC: false).
  virtual bool should_cache() const { return true; }

  /// Extra time (beyond the nominal grid instant) a tuned radio must allow for
  /// the report to appear — LAIR/HYB clients return the deferral window.
  virtual double report_slack() const { return 0.0; }

  // --- building blocks for the handlers ---
  /// Drop everything and adopt `stamp` as the new consistency point.
  void drop_cache_and_resync(SimTime stamp);
  /// Invalidate `id` if the cached copy is older than `updated_at`.
  void invalidate_if_older(ItemId id, SimTime updated_at);
  /// Invalidate `id` unconditionally.
  void invalidate(ItemId id);
  /// Certify all remaining entries at `stamp`, advance tc_, answer what can be
  /// answered. Call exactly once at the end of a successfully applied report.
  void finish_report(SimTime stamp);
  /// UIR/HYB mini application (shared): requires continuity with the anchor.
  void apply_mini(const MiniReport& report);
  /// PIG/HYB digest application (shared): always safe to invalidate; a complete
  /// digest whose horizon covers tc_ also advances the consistency point.
  void apply_digest(const PiggyDigest& digest);

  /// Queue a query record; `awaiting` marks it as already fetching.
  void enqueue_pending(ItemId item, SimTime qtime, bool awaiting);
  /// Turn a pending query into an uplink fetch (idempotent per item).
  void decide_miss(ItemId item);
  /// Start waiting for an item the server will push unprompted (PER's
  /// invalid-poll path): arms the re-request timeout without an initial request.
  void await_item(ItemId item);
  /// Record a hit answered NOW for a query issued at `qtime`, certified at
  /// `consistency_time` with `version` (PER's immediate-answer path).
  void record_hit_answer(SimTime qtime, ItemId item, Version version,
                         SimTime consistency_time, bool via_digest = false);
  /// True if an uplink fetch for `item` is in flight.
  bool awaiting_item(ItemId item) const {
    for (const auto& rt : request_timers_)
      if (rt.item == item) return true;
    return false;
  }

  const Database& oracle() const { return oracle_; }
  UplinkChannel& uplink() { return uplink_; }
  ServerProtocol& server() { return server_; }

  LruCache cache_;
  SimTime tc_ = 0.0;  ///< consistency point (0 = never synchronised)
  Rng rng_;
  StatsSink& sink_;
  ProtoConfig cfg_;
  Simulator& sim_;

 private:
  void on_reception(const Reception& rx) override;
  /// Route a decoded report payload of a `kind` frame to the handle_*
  /// overrides.
  void dispatch_report(MsgKind kind, const Payload& payload);
  /// Byzantine mode: re-encode the report through the wire codec, damage it
  /// deterministically, and let decode_report judge the result end-to-end —
  /// rejection degrades to an erasure, acceptance delivers what decoded.
  void byzantine_reception(const Reception& rx);
  void handle_item(const Message& msg, double airtime_s);
  void handle_data(const Message& msg);
  /// Answer pending queries decidable at the current consistency point.
  void answer_pending(bool via_digest = false);
  void send_request(ItemId item);
  void arm_request_timer(ItemId item);
  /// Uplink delivery callback: stamps the request's delivered_at (the t2 of
  /// the latency decomposition) just before the server handles it.
  void note_uplink_delivered(ItemId item);
  void complete_awaiting(ItemId item, Version version, SimTime content_time,
                         double airtime_s);

  // --- selective tuning ---
  void schedule_tune_open();
  void tune_open();
  void tune_close();
  /// Record a possible radio_on() change in the energy accounting and push it
  /// to the MAC's listening bit. Every change to radio_on()'s inputs calls it.
  void note_radio_state();

  struct PendingQuery {
    ItemId item;
    SimTime qtime;
    /// When the query's fate was decided (consistency point / immediate-fetch
    /// instant). Feeds the trace latency decomposition; equals qtime until a
    /// decision is made.
    SimTime decided_at;
    bool awaiting = false;  ///< miss decided; waiting for the item broadcast
  };

  /// Abandon pending queries and their re-request timers (sleep, churn).
  void abandon_pending();
  /// A consistency point was just (re-)established: close an open recovery
  /// window and report its telemetry to the fault layer.
  void note_consistency_reached();

  /// One in-flight uplink fetch: its re-request timer and, for the trace
  /// decomposition, when the last request for it reached the server.
  struct RequestState {
    ItemId item;
    EventId timer;
    SimTime delivered_at = -1.0;  ///< < 0: still in flight
    unsigned attempts = 0;        ///< re-requests so far (fault-layer backoff)
  };

  BroadcastMac& mac_;
  UplinkChannel& uplink_;
  ServerProtocol& server_;
  const Database& oracle_;
  bool awake_ = true;      ///< sleep model state, from on_sleep_transition()
  bool connected_ = true;  ///< fault-layer churn state, from on_churn()
  ClientId id_ = kInvalidClient;
  std::vector<PendingQuery> pending_;
  /// In-flight uplink fetches and their re-request timers. A client awaits a
  /// handful of items at most, so a flat scan beats hashing — and report
  /// application probes this on the hot path.
  std::vector<RequestState> request_timers_;

  FaultInjector* faults_ = nullptr;
  bool recovering_ = false;    ///< rejoined, consistency not yet re-established
  SimTime rejoin_at_ = 0.0;
  std::uint64_t exposed_ = 0;  ///< suspect entries shed during this recovery

  /// Selective tuning: window currently open. It starts open, so the radio
  /// stays on until the first applied report begins the doze cycle.
  bool tuned_on_ = true;
  std::uint64_t grid_tick_ = 0;
  EventId tune_timer_{};
  TimeWeighted radio_tw_{0.0, 1.0};
};

}  // namespace wdc

#endif  // WDC_PROTO_CLIENT_BASE_HPP
