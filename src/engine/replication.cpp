#include "engine/replication.hpp"

#include <utility>

#include "engine/sweep.hpp"

namespace wdc {

std::vector<Metrics> run_replications(const Scenario& scenario, unsigned reps,
                                      unsigned threads) {
  SweepSpec spec;
  spec.variants.push_back({});
  spec.axis.values = {0.0};
  SweepOptions opts;
  opts.reps = reps;
  opts.threads = threads;
  opts.base = scenario;
  SweepGrid grid = run_sweep(spec, opts);
  return std::move(grid.cells.front().reps);
}

ConfidenceInterval ci_of(const std::vector<Metrics>& reps,
                         const std::function<double(const Metrics&)>& field,
                         double conf) {
  std::vector<double> samples;
  samples.reserve(reps.size());
  for (const auto& m : reps) samples.push_back(field(m));
  return confidence_interval(samples, conf);
}

Metrics mean_of(const std::vector<Metrics>& reps) {
  Metrics out;
  if (reps.empty()) return out;
  const double n = static_cast<double>(reps.size());
  const auto avg = [&](auto getter) {
    double acc = 0.0;
    for (const auto& m : reps) acc += static_cast<double>(getter(m));
    return acc / n;
  };
  out.sim_time_s = avg([](const Metrics& m) { return m.sim_time_s; });
  out.measured_s = avg([](const Metrics& m) { return m.measured_s; });
  out.queries = static_cast<std::uint64_t>(avg([](const Metrics& m) { return m.queries; }));
  out.answered = static_cast<std::uint64_t>(avg([](const Metrics& m) { return m.answered; }));
  out.hits = static_cast<std::uint64_t>(avg([](const Metrics& m) { return m.hits; }));
  out.misses = static_cast<std::uint64_t>(avg([](const Metrics& m) { return m.misses; }));
  out.stale_serves = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.stale_serves; }));
  out.dropped_queries = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.dropped_queries; }));
  out.hit_ratio = avg([](const Metrics& m) { return m.hit_ratio; });
  out.mean_latency_s = avg([](const Metrics& m) { return m.mean_latency_s; });
  out.p50_latency_s = avg([](const Metrics& m) { return m.p50_latency_s; });
  out.p90_latency_s = avg([](const Metrics& m) { return m.p90_latency_s; });
  out.p99_latency_s = avg([](const Metrics& m) { return m.p99_latency_s; });
  out.mean_hit_latency_s = avg([](const Metrics& m) { return m.mean_hit_latency_s; });
  out.mean_miss_latency_s = avg([](const Metrics& m) { return m.mean_miss_latency_s; });
  out.uplink_requests = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.uplink_requests; }));
  out.uplink_per_query = avg([](const Metrics& m) { return m.uplink_per_query; });
  out.request_retries = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.request_retries; }));
  out.reports_sent = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.reports_sent; }));
  out.minis_sent = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.minis_sent; }));
  out.reports_heard = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.reports_heard; }));
  out.reports_missed = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.reports_missed; }));
  out.report_loss_rate = avg([](const Metrics& m) { return m.report_loss_rate; });
  out.cache_drops = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.cache_drops; }));
  out.false_invalidations = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.false_invalidations; }));
  out.digests_applied = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.digests_applied; }));
  out.digest_answers = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.digest_answers; }));
  out.mac_busy_frac = avg([](const Metrics& m) { return m.mac_busy_frac; });
  out.report_airtime_s = avg([](const Metrics& m) { return m.report_airtime_s; });
  out.item_airtime_s = avg([](const Metrics& m) { return m.item_airtime_s; });
  out.data_airtime_s = avg([](const Metrics& m) { return m.data_airtime_s; });
  out.report_overhead_frac =
      avg([](const Metrics& m) { return m.report_overhead_frac; });
  out.data_queue_delay_s = avg([](const Metrics& m) { return m.data_queue_delay_s; });
  out.mean_broadcast_mcs = avg([](const Metrics& m) { return m.mean_broadcast_mcs; });
  out.report_bits =
      static_cast<Bits>(avg([](const Metrics& m) { return m.report_bits; }));
  out.piggyback_bits =
      static_cast<Bits>(avg([](const Metrics& m) { return m.piggyback_bits; }));
  out.item_broadcasts = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.item_broadcasts; }));
  out.coalesced_requests = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.coalesced_requests; }));
  out.data_frames_dropped = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.data_frames_dropped; }));
  out.listen_airtime_s = avg([](const Metrics& m) { return m.listen_airtime_s; });
  out.listen_airtime_per_query =
      avg([](const Metrics& m) { return m.listen_airtime_per_query; });
  out.radio_on_frac = avg([](const Metrics& m) { return m.radio_on_frac; });
  out.lair_deferred = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.lair_deferred; }));
  out.lair_mean_deferral_s =
      avg([](const Metrics& m) { return m.lair_mean_deferral_s; });
  out.hyb_mean_m = avg([](const Metrics& m) { return m.hyb_mean_m; });
  out.ir_wait_s = avg([](const Metrics& m) { return m.ir_wait_s; });
  out.uplink_s = avg([](const Metrics& m) { return m.uplink_s; });
  out.bcast_wait_s = avg([](const Metrics& m) { return m.bcast_wait_s; });
  out.airtime_s = avg([](const Metrics& m) { return m.airtime_s; });
  out.trace_events = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.trace_events; }));
  out.trace_dropped = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.trace_dropped; }));
  out.fault_ir_drops = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.fault_ir_drops; }));
  out.fault_bcast_drops = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.fault_bcast_drops; }));
  out.fault_uplink_drops = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.fault_uplink_drops; }));
  out.churn_events = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.churn_events; }));
  out.churn_rejoins = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.churn_rejoins; }));
  out.recoveries = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.recoveries; }));
  out.mean_recovery_s = avg([](const Metrics& m) { return m.mean_recovery_s; });
  out.stale_exposure = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.stale_exposure; }));
  out.fault_corrupt_rejected = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.fault_corrupt_rejected; }));
  out.fault_corrupt_accepted = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.fault_corrupt_accepted; }));
  out.server_crashes = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.server_crashes; }));
  out.server_recoveries = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.server_recoveries; }));
  out.crash_suppressed = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.crash_suppressed; }));
  out.schedule_misses = static_cast<std::uint64_t>(
      avg([](const Metrics& m) { return m.schedule_misses; }));
  const auto avg_count = [&](auto field) {
    return static_cast<std::uint64_t>(
        avg([field](const Metrics& m) { return static_cast<double>(m.kernel.*field); }));
  };
  out.kernel.scheduled = avg_count(&KernelCounters::scheduled);
  out.kernel.fired = avg_count(&KernelCounters::fired);
  out.kernel.cancelled = avg_count(&KernelCounters::cancelled);
  out.kernel.dead_skipped = avg_count(&KernelCounters::dead_skipped);
  out.kernel.slots_reused = avg_count(&KernelCounters::slots_reused);
  out.kernel.heap_peak = avg_count(&KernelCounters::heap_peak);
  for (std::size_t p = 0; p < kNumEventPriorities; ++p)
    out.kernel.scheduled_by_prio[p] = static_cast<std::uint64_t>(avg(
        [p](const Metrics& m) { return static_cast<double>(m.kernel.scheduled_by_prio[p]); }));
  return out;
}

}  // namespace wdc
