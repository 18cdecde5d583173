#include "engine/digest.hpp"

#include <bit>

#include "engine/metrics.hpp"

namespace wdc {

void Fnv1aDigest::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Fnv1aDigest::mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t metrics_digest(const Metrics& m) {
  Fnv1aDigest d;
  d.mix(m.seed);
  d.mix(m.sim_time_s);
  d.mix(m.measured_s);
  d.mix(m.events);
  d.mix(m.queries);
  d.mix(m.answered);
  d.mix(m.hits);
  d.mix(m.misses);
  d.mix(m.stale_serves);
  d.mix(m.dropped_queries);
  d.mix(m.hit_ratio);
  d.mix(m.mean_latency_s);
  d.mix(m.p50_latency_s);
  d.mix(m.p90_latency_s);
  d.mix(m.p99_latency_s);
  d.mix(m.mean_hit_latency_s);
  d.mix(m.mean_miss_latency_s);
  d.mix(m.uplink_requests);
  d.mix(m.uplink_per_query);
  d.mix(m.request_retries);
  d.mix(m.reports_sent);
  d.mix(m.minis_sent);
  d.mix(m.reports_heard);
  d.mix(m.reports_missed);
  d.mix(m.report_loss_rate);
  d.mix(m.cache_drops);
  d.mix(m.false_invalidations);
  d.mix(m.digests_applied);
  d.mix(m.digest_answers);
  d.mix(m.mac_busy_frac);
  d.mix(m.report_airtime_s);
  d.mix(m.item_airtime_s);
  d.mix(m.data_airtime_s);
  d.mix(m.report_overhead_frac);
  d.mix(m.data_queue_delay_s);
  d.mix(m.mean_broadcast_mcs);
  d.mix(m.report_bits);
  d.mix(m.piggyback_bits);
  d.mix(m.item_broadcasts);
  d.mix(m.coalesced_requests);
  d.mix(m.data_frames_dropped);
  d.mix(m.listen_airtime_s);
  d.mix(m.listen_airtime_per_query);
  d.mix(m.radio_on_frac);
  d.mix(m.lair_deferred);
  d.mix(m.lair_mean_deferral_s);
  d.mix(m.hyb_mean_m);
  // Deliberately NOT mixed — the machine-readable exclusion list below is
  // cross-checked against struct Metrics by `wdc_lint --check digest-purity`:
  // a new Metrics field must be mixed above or added here, never silently
  // neither (and never both).
  //
  // m.kernel: perf counters describe how the kernel did the work, not what
  // the model computed, and must not perturb digests between instrumented
  // (-DWDC_PERF_COUNTERS=ON) and stripped builds.
  //   wdc-lint: digest-exclude(kernel)
  // m.link_pass counts the downlink pass's work under the same gate.
  //   wdc-lint: digest-exclude(link_pass)
  // The trace-derived fields are excluded for the same reason: digests must
  // be bit-identical between -DWDC_TRACE=ON and OFF builds, traced or not.
  //   wdc-lint: digest-exclude(ir_wait_s, uplink_s, bcast_wait_s, airtime_s)
  //   wdc-lint: digest-exclude(trace_events, trace_dropped)
  // The fault-layer fields are likewise excluded: a disabled injector must
  // digest identically to a -DWDC_FAULTS=OFF build.
  //   wdc-lint: digest-exclude(fault_ir_drops, fault_bcast_drops)
  //   wdc-lint: digest-exclude(fault_uplink_drops, churn_events)
  //   wdc-lint: digest-exclude(churn_rejoins, recoveries, mean_recovery_s)
  //   wdc-lint: digest-exclude(stale_exposure)
  //   wdc-lint: digest-exclude(fault_corrupt_rejected, fault_corrupt_accepted)
  //   wdc-lint: digest-exclude(server_crashes, server_recoveries)
  //   wdc-lint: digest-exclude(crash_suppressed, schedule_misses)
  return d.value();
}

}  // namespace wdc
