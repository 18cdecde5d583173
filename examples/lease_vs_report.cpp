/// @file lease_vs_report.cpp
/// Scenario example: why did wireless data caching standardise on broadcast
/// invalidation reports instead of stateful callbacks?
///
/// Runs CBL (leases + unicast callback notices) against TS and HYB across
/// increasingly hostile channels and prints the three-way trade-off:
/// latency (CBL wins), server state (CBL pays), consistency (CBL leaks —
/// stale serves appear exactly when fading and sleep interrupt the callback
/// channel, while the IR schemes stay at zero by construction).
///
/// Usage: ./lease_vs_report [reps=2] [any scenario key=value …]

#include <iostream>

#include "engine/replication.hpp"
#include "engine/simulation.hpp"
#include "stats/table.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace wdc;
  Config cfg;
  cfg.load_args(argc, argv);
  const auto reps = static_cast<unsigned>(cfg.get_int("reps", 2));

  Scenario base;
  base.num_clients = 25;
  base.db.num_items = 400;
  base.db.update_rate = 1.0;  // callback traffic needs updates to exist
  base.query.rate = 0.1;
  base.sim_time_s = cfg.get_double("sim_time", 2000.0);
  base.warmup_s = cfg.get_double("warmup", 300.0);
  base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 11));
  cfg.require_all_used();
  base.proto.cbl_lease_s = 120.0;

  struct Env {
    const char* name;
    double mean_snr_db;
    double sleep_ratio;
  };
  const Env envs[] = {
      {"benign (26 dB, no sleep)", 26.0, 0.0},
      {"faded (14 dB, no sleep)", 14.0, 0.0},
      {"hostile (14 dB, 20% sleep)", 14.0, 0.2},
  };

  std::cout << "lease_vs_report — CBL (stateful callbacks) vs TS/HYB (broadcast "
               "reports)\n\n";
  Table t({"environment", "protocol", "latency (s)", "stale/10k answers",
           "uplink msg/query"});
  for (const auto& env : envs) {
    for (const auto kind :
         {ProtocolKind::kCbl, ProtocolKind::kTs, ProtocolKind::kHyb}) {
      Scenario s = base;
      s.mean_snr_db = env.mean_snr_db;
      s.sleep.sleep_ratio = env.sleep_ratio;
      s.protocol = kind;
      const auto rs = run_replications(s, reps, 0);
      const Metrics m = mean_of(rs);
      t.begin_row();
      t.cell(env.name);
      t.cell(to_string(kind));
      t.cell(m.mean_latency_s, 2);
      t.cell(m.answered ? 1e4 * double(m.stale_serves) / double(m.answered) : 0.0,
             2);
      t.cell(m.uplink_per_query, 3);
      std::cout << "  ran " << to_string(kind) << " in " << env.name << "\n";
    }
  }
  std::cout << "\n";
  t.print_text(std::cout, "  ");
  std::cout << "\nReading: CBL's zero-wait reads look unbeatable on the benign "
               "channel — but its\nstale column is never 0 (in-flight notices) and "
               "grows with fading, while the\nreport schemes stay at exactly 0 "
               "everywhere. Under sleep CBL leaks less only\nbecause voided "
               "leases also destroy its zero-wait benefit. That asymmetry is\nthe "
               "reason the IR family (this paper's subject) exists.\n";
  return 0;
}
