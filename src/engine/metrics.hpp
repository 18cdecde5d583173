#ifndef WDC_ENGINE_METRICS_HPP
#define WDC_ENGINE_METRICS_HPP

/// @file metrics.hpp
/// Flattened result record of one simulation run — every number a bench or test
/// might want, as plain doubles/counters so replications aggregate trivially.

#include <cstdint>
#include <iosfwd>

#include "sim/kernel_counters.hpp"
#include "util/types.hpp"

namespace wdc {

struct Metrics {
  // --- run identity ---
  std::uint64_t seed = 0;
  double sim_time_s = 0.0;
  double measured_s = 0.0;  ///< sim_time − warmup
  std::uint64_t events = 0;

  // --- query service ---
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale_serves = 0;  ///< consistency violations (must be 0)
  std::uint64_t dropped_queries = 0;
  double hit_ratio = 0.0;
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p90_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_hit_latency_s = 0.0;
  double mean_miss_latency_s = 0.0;

  // --- uplink ---
  std::uint64_t uplink_requests = 0;
  double uplink_per_query = 0.0;
  std::uint64_t request_retries = 0;

  // --- reports / cache dynamics ---
  std::uint64_t reports_sent = 0;
  std::uint64_t minis_sent = 0;
  std::uint64_t reports_heard = 0;
  std::uint64_t reports_missed = 0;
  double report_loss_rate = 0.0;  ///< missed / (heard + missed)
  std::uint64_t cache_drops = 0;
  std::uint64_t false_invalidations = 0;
  std::uint64_t digests_applied = 0;
  std::uint64_t digest_answers = 0;

  // --- downlink airtime ---
  double mac_busy_frac = 0.0;
  double report_airtime_s = 0.0;   ///< IR + mini airtime
  double item_airtime_s = 0.0;
  double data_airtime_s = 0.0;
  double report_overhead_frac = 0.0;  ///< report airtime / measured time
  double data_queue_delay_s = 0.0;    ///< mean MAC queueing of data frames
  double mean_broadcast_mcs = 0.0;
  Bits report_bits = 0;
  Bits piggyback_bits = 0;
  std::uint64_t item_broadcasts = 0;
  std::uint64_t coalesced_requests = 0;
  std::uint64_t data_frames_dropped = 0;

  // --- energy proxy ---
  double listen_airtime_s = 0.0;       ///< summed over clients
  double listen_airtime_per_query = 0.0;
  double radio_on_frac = 0.0;          ///< mean fraction of time radios were powered

  // --- new-algorithm telemetry ---
  std::uint64_t lair_deferred = 0;
  double lair_mean_deferral_s = 0.0;
  double hyb_mean_m = 0.0;

  // --- query-latency decomposition (trace-derived) ---
  /// Per-counted-answer means of the four latency components; their sum equals
  /// mean_latency_s up to float rounding. All zero when tracing is disabled or
  /// compiled out (-DWDC_TRACE=OFF), and — like `kernel` — excluded from
  /// metrics_digest() so traced and untraced runs digest identically.
  double ir_wait_s = 0.0;     ///< query → consistency-point decision
  double uplink_s = 0.0;      ///< decision → request reaches the server
  double bcast_wait_s = 0.0;  ///< server → item broadcast starts
  double airtime_s = 0.0;     ///< item broadcast airtime
  std::uint64_t trace_events = 0;   ///< events emitted into the trace ring
  std::uint64_t trace_dropped = 0;  ///< ring overwrites (no file sink attached)

  // --- fault injection / recovery (src/faults) ---
  /// All zero when the fault layer is disabled (faults=false) or compiled out
  /// (-DWDC_FAULTS=OFF), and — like `kernel` and the decomposition means —
  /// excluded from metrics_digest() so faulted-capable and stripped builds
  /// digest identically.
  std::uint64_t fault_ir_drops = 0;     ///< report receptions erased
  std::uint64_t fault_bcast_drops = 0;  ///< item/data/control receptions erased
  std::uint64_t fault_uplink_drops = 0; ///< uplink requests lost
  std::uint64_t churn_events = 0;       ///< client disconnects
  std::uint64_t churn_rejoins = 0;      ///< client reconnects
  std::uint64_t recoveries = 0;         ///< consistency points after rejoins
  double mean_recovery_s = 0.0;         ///< mean rejoin → consistency time
  std::uint64_t stale_exposure = 0;     ///< suspect entries shed in recoveries
  std::uint64_t fault_corrupt_rejected = 0;  ///< byzantine frames codec caught
  std::uint64_t fault_corrupt_accepted = 0;  ///< byzantine frames that decoded
  std::uint64_t server_crashes = 0;     ///< scripted server-down edges
  std::uint64_t server_recoveries = 0;  ///< restarts (log-replay full reports)
  std::uint64_t crash_suppressed = 0;   ///< server sends/receptions swallowed
  std::uint64_t schedule_misses = 0;    ///< scripted point events never matched

  // --- event-kernel perf counters ---
  /// Instrumentation only: all zero under -DWDC_PERF_COUNTERS=OFF, and
  /// deliberately excluded from metrics_digest() so instrumented and stripped
  /// builds produce identical digests.
  KernelCounters kernel;
  /// Downlink fan-out pass work (links evaluated, padded fader lanes);
  /// instrumentation under the same gate, excluded from the digest likewise.
  LinkPassCounters link_pass;

  /// Human-readable dump (examples use it).
  void print(std::ostream& os) const;
};

}  // namespace wdc

#endif  // WDC_ENGINE_METRICS_HPP
