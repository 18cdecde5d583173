/// @file stock_ticker.cpp
/// Scenario example: mobile stock-quote terminals.
///
/// A small database of quotes (300 symbols) with a *hot* update process — the
/// top 30 symbols take 90% of the updates at 5 updates/s — and impatient
/// clients. Freshness pressure is maximal: cached quotes die quickly, so the
/// invalidation scheme's deferral time dominates user-visible latency.
///
/// Demonstrates the incremental API: the simulation advances in 5-minute slices
/// and prints the evolving metrics, the way a long measurement campaign would.
///
/// Usage: ./stock_ticker [protocol=UIR] [slices=6] [any scenario key=value …]

#include <iostream>

#include "engine/simulation.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace wdc;
  Config cfg;
  cfg.load_args(argc, argv);
  const auto slices = static_cast<int>(cfg.get_int("slices", 6));

  Scenario s;
  s.protocol = protocol_from_string(cfg.get_string("protocol", "UIR"));
  s.num_clients = 40;
  s.db.num_items = 300;
  s.db.item_bits = bits_from_bytes(64);  // a quote is tiny
  s.db.update_rate = 5.0;                // market hours
  s.db.hot_items = 30;
  s.db.hot_update_frac = 0.9;
  s.query.rate = 0.2;                    // impatient traders
  s.query.hot_items = 30;                // everyone watches the same symbols
  s.query.hot_frac = 0.9;
  s.proto.ir_interval_s = 10.0;          // freshness demands a short interval
  s.proto.uir_m = 5;
  s.proto.pig_horizon_s = 15.0;
  s.proto.cache_capacity = 300;          // quotes are small: cache everything
  s.traffic.offered_bps = 15e3;          // news/chart downloads
  s.sim_time_s = 300.0 * slices + 100.0;
  s.warmup_s = 100.0;
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 3));
  cfg.require_all_used();

  std::cout << "stock_ticker — protocol " << to_string(s.protocol) << ", "
            << s.db.update_rate << " updates/s on " << s.db.hot_items
            << " hot symbols, IR every " << s.proto.ir_interval_s << "s\n\n";
  std::cout << strfmt("%8s %10s %10s %10s %12s %12s\n", "t (s)", "answered",
                      "hit ratio", "latency", "stale", "req/query");

  Simulation sim(s);
  for (int slice = 1; slice <= slices; ++slice) {
    sim.run_until(100.0 + 300.0 * slice);
    const Metrics m = sim.collect();
    std::cout << strfmt("%8.0f %10llu %10.3f %9.2fs %12llu %12.3f\n",
                        m.sim_time_s,
                        static_cast<unsigned long long>(m.answered), m.hit_ratio,
                        m.mean_latency_s,
                        static_cast<unsigned long long>(m.stale_serves),
                        m.uplink_per_query);
  }

  const Metrics m = sim.collect();
  std::cout << "\nfinal: " << m.answered << " queries answered, mean latency "
            << strfmt("%.2f", m.mean_latency_s) << "s, p99 "
            << strfmt("%.2f", m.p99_latency_s) << "s, " << m.stale_serves
            << " stale quotes served (must be 0)\n";
  std::cout << "\nTip: rerun with protocol=TS to see what the quote staleness "
               "pressure does\nto a plain timestamp scheme, or protocol=HYB to "
               "let the news traffic carry\nthe invalidations.\n";
  return m.stale_serves == 0 ? 0 : 1;
}
