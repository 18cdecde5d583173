#include "engine/run_stats.hpp"

#include "engine/scenario.hpp"
#include "util/check.hpp"

namespace wdc {

void RunStats::merge(const RunStats& other) {
  // All cells stop on the same epoch grid, so their clocks agree at gather
  // time; a mismatch means the barrier let a cell escape.
  WDC_CHECK(cells == 0 || now_s == other.now_s,
            "cell clocks diverged at merge: ", now_s, " vs ", other.now_s);
  now_s = other.now_s;
  cells += other.cells;
  events += other.events;
  clients += other.clients;

  sink.merge_from(other.sink);
  uplink_requests += other.uplink_requests;

  reports_sent += other.reports_sent;
  minis_sent += other.minis_sent;
  item_broadcasts += other.item_broadcasts;
  coalesced_requests += other.coalesced_requests;
  digest_bits += other.digest_bits;
  lair_deferred += other.lair_deferred;
  lair_deferral_s += other.lair_deferral_s;
  crash_suppressed += other.crash_suppressed;
  hyb_m.merge(other.hyb_m);

  ir.merge_from(other.ir);
  mini.merge_from(other.mini);
  item.merge_from(other.item);
  data.merge_from(other.data);
  busy_frac_sum += other.busy_frac_sum;
  bcast_mcs.merge(other.bcast_mcs);

  radio_on_s += other.radio_on_s;

  decomp.ir_wait_s += other.decomp.ir_wait_s;
  decomp.uplink_s += other.decomp.uplink_s;
  decomp.bcast_wait_s += other.decomp.bcast_wait_s;
  decomp.airtime_s += other.decomp.airtime_s;
  decomp.answers += other.decomp.answers;
  trace_events += other.trace_events;
  trace_dropped += other.trace_dropped;
  faults.merge_from(other.faults);
  kernel.merge_from(other.kernel);
  link_pass.merge_from(other.link_pass);
}

Metrics finalize_run(const Scenario& scenario, const RunStats& rs) {
  Metrics m;
  m.seed = scenario.seed;
  m.sim_time_s = rs.now_s;
  m.measured_s = rs.now_s - scenario.warmup_s;
  m.events = rs.events;

  const StatsSink& s = rs.sink;
  m.queries = s.queries();
  m.answered = s.answered();
  m.hits = s.hits();
  m.misses = s.misses();
  m.stale_serves = s.stale_serves();
  m.dropped_queries = s.dropped();
  m.hit_ratio = s.hit_ratio();
  m.mean_latency_s = s.latency().mean();
  m.p50_latency_s = s.latency_hist().quantile(0.50);
  m.p90_latency_s = s.latency_hist().quantile(0.90);
  m.p99_latency_s = s.latency_hist().quantile(0.99);
  m.mean_hit_latency_s = s.hit_latency().mean();
  m.mean_miss_latency_s = s.miss_latency().mean();

  m.uplink_requests = rs.uplink_requests;
  m.uplink_per_query =
      m.answered ? static_cast<double>(m.uplink_requests) /
                       static_cast<double>(m.answered)
                 : 0.0;
  m.request_retries = s.request_retries();

  m.reports_sent = rs.reports_sent;
  m.minis_sent = rs.minis_sent;
  m.reports_heard = s.reports_heard();
  m.reports_missed = s.reports_missed();
  const auto offered = m.reports_heard + m.reports_missed;
  m.report_loss_rate =
      offered ? static_cast<double>(m.reports_missed) / static_cast<double>(offered)
              : 0.0;
  m.cache_drops = s.cache_drops();
  m.false_invalidations = s.false_invalidations();
  m.digests_applied = s.digests_applied();
  m.digest_answers = s.digest_answers();

  // Mean of the per-cell busy fractions: each cell's MAC covers the same
  // wall of simulated time, so the unweighted mean is the population figure.
  // At one cell this divides by 1.0 — bit-exact with the legacy path.
  m.mac_busy_frac =
      rs.cells ? rs.busy_frac_sum / static_cast<double>(rs.cells) : 0.0;
  m.report_airtime_s = rs.ir.airtime_s + rs.mini.airtime_s;
  m.item_airtime_s = rs.item.airtime_s;
  m.data_airtime_s = rs.data.airtime_s;
  m.report_overhead_frac =
      rs.now_s > 0.0 ? m.report_airtime_s / rs.now_s : 0.0;
  m.data_queue_delay_s = rs.data.queue_delay.mean();
  m.mean_broadcast_mcs = rs.bcast_mcs.mean();
  m.report_bits = rs.ir.bits + rs.mini.bits;
  m.piggyback_bits = rs.digest_bits;
  m.item_broadcasts = rs.item_broadcasts;
  m.coalesced_requests = rs.coalesced_requests;
  m.data_frames_dropped = rs.data.dropped;

  m.listen_airtime_s = s.listen_airtime_s();
  m.listen_airtime_per_query =
      m.answered ? m.listen_airtime_s / static_cast<double>(m.answered) : 0.0;
  if (rs.clients > 0 && rs.now_s > 0.0)
    m.radio_on_frac = rs.radio_on_s / (rs.now_s * static_cast<double>(rs.clients));

  m.lair_deferred = rs.lair_deferred;
  m.lair_mean_deferral_s =
      m.lair_deferred
          ? rs.lair_deferral_s / static_cast<double>(m.lair_deferred)
          : 0.0;
  m.hyb_mean_m = rs.hyb_m.mean();

  // Latency decomposition (zero when tracing is off or compiled out). Means
  // over counted answered queries; excluded from digests like m.kernel.
  if (rs.decomp.answers > 0) {
    const double n = static_cast<double>(rs.decomp.answers);
    m.ir_wait_s = rs.decomp.ir_wait_s / n;
    m.uplink_s = rs.decomp.uplink_s / n;
    m.bcast_wait_s = rs.decomp.bcast_wait_s / n;
    m.airtime_s = rs.decomp.airtime_s / n;
  }
  m.trace_events = rs.trace_events;
  m.trace_dropped = rs.trace_dropped;

  // Fault/recovery telemetry (all zero when the layer is disabled or compiled
  // out). Excluded from digests like m.kernel and the decomposition means.
  m.fault_ir_drops = rs.faults.ir_drops;
  m.fault_bcast_drops = rs.faults.bcast_drops;
  m.fault_uplink_drops = rs.faults.uplink_drops;
  m.churn_events = rs.faults.churn_events;
  m.churn_rejoins = rs.faults.rejoins;
  m.recoveries = rs.faults.recoveries;
  m.mean_recovery_s =
      rs.faults.recoveries
          ? rs.faults.recovery_time_s / static_cast<double>(rs.faults.recoveries)
          : 0.0;
  m.stale_exposure = rs.faults.stale_exposure;
  m.fault_corrupt_rejected = rs.faults.corrupt_rejected;
  m.fault_corrupt_accepted = rs.faults.corrupt_accepted;
  m.server_crashes = rs.faults.server_crashes;
  m.server_recoveries = rs.faults.server_recoveries;
  m.crash_suppressed = rs.crash_suppressed;
  m.schedule_misses = rs.faults.schedule_misses;

  m.kernel = rs.kernel;
  m.link_pass = rs.link_pass;
  return m;
}

}  // namespace wdc
