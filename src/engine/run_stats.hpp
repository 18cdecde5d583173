#ifndef WDC_ENGINE_RUN_STATS_HPP
#define WDC_ENGINE_RUN_STATS_HPP

/// @file run_stats.hpp
/// Raw per-cell accumulator snapshot and the shared finalize path that turns
/// it into a Metrics record.
///
/// The split exists for the sharded core: every cell gathers a RunStats, the
/// collector folds them in cell order 0..C-1 (RunStats::merge), and ONE
/// finalize function computes every derived ratio/mean. Because the legacy
/// single-cell Simulation::collect() routes through the same
/// gather → finalize pipeline, a 1-cell run is bit-identical to the
/// pre-sharding engine by construction: merging a populated snapshot into an
/// empty one copies every accumulator bit-for-bit, and finalize evaluates the
/// exact expressions collect() used to inline.

#include <cstdint>

#include "engine/metrics.hpp"
#include "faults/fault_config.hpp"
#include "mac/broadcast_mac.hpp"
#include "proto/stats_sink.hpp"
#include "sim/kernel_counters.hpp"
#include "stats/summary.hpp"
#include "trace/trace_recorder.hpp"
#include "util/types.hpp"

namespace wdc {

struct Scenario;

/// Everything a finished cell contributes to the run's metrics, in raw
/// (pre-ratio) form so cells aggregate exactly.
struct RunStats {
  std::uint64_t cells = 0;    ///< snapshots folded in (1 per gathered cell)
  double now_s = 0.0;         ///< cell clock at gather; equal across cells
  std::uint64_t events = 0;
  std::uint64_t clients = 0;

  StatsSink sink;             ///< client-side query/report accumulators

  std::uint64_t uplink_requests = 0;

  // --- server-side counters ---
  std::uint64_t reports_sent = 0;
  std::uint64_t minis_sent = 0;
  std::uint64_t item_broadcasts = 0;
  std::uint64_t coalesced_requests = 0;
  Bits digest_bits = 0;
  std::uint64_t lair_deferred = 0;
  double lair_deferral_s = 0.0;
  std::uint64_t crash_suppressed = 0;
  Summary hyb_m;              ///< HYB adaptive-m history (empty otherwise)

  // --- MAC / downlink airtime ---
  MacKindStats ir;
  MacKindStats mini;
  MacKindStats item;
  MacKindStats data;
  double busy_frac_sum = 0.0;  ///< Σ per-cell busy fractions (mean over cells)
  Summary bcast_mcs;           ///< broadcast MCS choices

  // --- energy proxy ---
  double radio_on_s = 0.0;     ///< Σ per-client radio-on time

  // --- digest-inert instrumentation ---
  TraceDecomp decomp;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  FaultStats faults;
  KernelCounters kernel;

  /// Fold another cell's snapshot into this one. Order matters for the
  /// float-valued Summary reductions, so the collector always folds in cell
  /// index order — that is what makes the merged digest a pure function of
  /// (scenario, seed, shard map), independent of the thread placement.
  void merge(const RunStats& other);
};

/// Compute the final Metrics record from a (possibly merged) snapshot. The
/// single source of truth for every derived ratio/mean — legacy and sharded
/// runs share it, so they cannot drift apart.
Metrics finalize_run(const Scenario& scenario, const RunStats& rs);

}  // namespace wdc

#endif  // WDC_ENGINE_RUN_STATS_HPP
