#include "engine/metrics.hpp"

#include <ostream>

#include "util/string_util.hpp"

namespace {
/// %llu-friendly view of a counter (uint64_t's underlying type varies).
constexpr unsigned long long ull(std::uint64_t v) { return v; }
}  // namespace

namespace wdc {

void Metrics::print(std::ostream& os) const {
  os << strfmt("queries            %llu (answered %llu, dropped %llu)\n",
               ull(queries), ull(answered), ull(dropped_queries));
  os << strfmt("hit ratio          %.4f (%llu hits / %llu misses)\n", hit_ratio,
               ull(hits), ull(misses));
  os << strfmt(
      "latency            mean %.3fs  p50 %.3fs  p90 %.3fs  p99 %.3fs\n",
      mean_latency_s, p50_latency_s, p90_latency_s, p99_latency_s);
  os << strfmt("  hit/miss         %.3fs / %.3fs\n", mean_hit_latency_s,
               mean_miss_latency_s);
  os << strfmt("stale serves       %llu (consistency violations)\n",
               ull(stale_serves));
  os << strfmt(
      "uplink             %llu requests (%.3f per query, %llu retries)\n",
      ull(uplink_requests), uplink_per_query, ull(request_retries));
  os << strfmt("reports            %llu full + %llu mini sent; loss rate %.4f\n",
               ull(reports_sent), ull(minis_sent), report_loss_rate);
  os << strfmt("cache              %llu drops, %llu false invalidations\n",
               ull(cache_drops), ull(false_invalidations));
  os << strfmt("digests            %llu applied, %llu early answers\n",
               ull(digests_applied), ull(digest_answers));
  os << strfmt(
      "airtime            busy %.3f; reports %.1fs items %.1fs data %.1fs\n",
      mac_busy_frac, report_airtime_s, item_airtime_s, data_airtime_s);
  os << strfmt("report overhead    %.4f of wall clock; mean broadcast MCS %.2f\n",
               report_overhead_frac, mean_broadcast_mcs);
  os << strfmt("data queue delay   %.3fs mean; %llu frames dropped\n",
               data_queue_delay_s, ull(data_frames_dropped));
  os << strfmt(
      "energy proxy       %.4fs listen airtime per query; radio on %.3f "
      "of the time\n",
      listen_airtime_per_query, radio_on_frac);
  if (lair_deferred > 0)
    os << strfmt("LAIR               %llu deferred reports, mean slide %.3fs\n",
                 ull(lair_deferred), lair_mean_deferral_s);
  if (hyb_mean_m > 0.0)
    os << strfmt("HYB                mean m %.2f\n", hyb_mean_m);
  if (ir_wait_s + uplink_s + bcast_wait_s + airtime_s > 0.0)
    os << strfmt(
        "latency decomp     ir-wait %.3fs  uplink %.3fs  bcast-wait %.3fs  "
        "airtime %.3fs\n",
        ir_wait_s, uplink_s, bcast_wait_s, airtime_s);
  if (trace_events > 0)
    os << strfmt("trace              %llu events (%llu overwritten)\n",
                 ull(trace_events), ull(trace_dropped));
  if (fault_ir_drops + fault_bcast_drops + fault_uplink_drops + churn_events > 0)
    os << strfmt(
        "faults             %llu IR / %llu bcast / %llu uplink drops; "
        "%llu churns, %llu recoveries (mean %.3fs, %llu entries exposed)\n",
        ull(fault_ir_drops), ull(fault_bcast_drops), ull(fault_uplink_drops),
        ull(churn_events), ull(recoveries), mean_recovery_s,
        ull(stale_exposure));
  if (fault_corrupt_rejected + fault_corrupt_accepted + server_crashes > 0)
    os << strfmt(
        "incidents          %llu corrupt frames rejected (%llu accepted); "
        "%llu crashes / %llu recoveries, %llu sends suppressed, "
        "%llu schedule misses\n",
        ull(fault_corrupt_rejected), ull(fault_corrupt_accepted),
        ull(server_crashes), ull(server_recoveries), ull(crash_suppressed),
        ull(schedule_misses));
  if (kernel.scheduled > 0)
    os << strfmt(
        "event kernel       %llu scheduled / %llu fired / %llu cancelled; "
        "heap peak %llu, %llu slots reused\n",
        ull(kernel.scheduled), ull(kernel.fired), ull(kernel.cancelled),
        ull(kernel.heap_peak), ull(kernel.slots_reused));
  if (link_pass.links_evaluated > 0)
    os << strfmt("downlink pass      %llu links evaluated, %llu padded lanes\n",
                 ull(link_pass.links_evaluated), ull(link_pass.padded_lanes));
}

}  // namespace wdc
