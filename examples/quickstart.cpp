/// @file quickstart.cpp
/// Smallest possible use of the public API: simulate one protocol at the default
/// operating point and print its metrics. Any scenario knob can be overridden on
/// the command line as key=value, e.g.:
///
///   ./quickstart protocol=HYB update_rate=20 traffic_bps=40000 seed=7

#include <iostream>

#include "engine/simulation.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  wdc::Config cfg;
  cfg.load_args(argc, argv);
  wdc::Scenario sc;
  try {
    sc = wdc::Scenario::from_config(cfg);
    cfg.require_all_used();  // a misspelt knob is an error, not a default
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "wdc-sim quickstart — protocol " << wdc::to_string(sc.protocol)
            << ", " << sc.num_clients << " clients, " << sc.db.num_items
            << " items, " << sc.sim_time_s << "s simulated\n\n";

  const wdc::Metrics m = wdc::run_scenario(sc);
  m.print(std::cout);
  std::cout << "\n(" << m.events << " events executed)\n";
  // Exit status reflects the consistency contract — which CBL deliberately
  // relaxes (its stale count is the measurement, not a failure).
  const bool contract_holds =
      m.stale_serves == 0 || sc.protocol == wdc::ProtocolKind::kCbl;
  return contract_holds ? 0 : 1;
}
