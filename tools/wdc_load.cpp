/// @file wdc_load.cpp
/// Load driver against a wdc_serve daemon: a closed-loop client fleet on one
/// epoll thread, reporting answer-latency percentiles and the zero-drop
/// verdict (every op sent must be answered; exit 1 otherwise).
///
///   wdc_load [key=value …]
///
/// Keys: host= port= | unix=path, conns=, in_flight=, requests= (per conn),
/// duration_s= (soak mode; overrides requests=0), seed=, poll_fraction=,
/// replay=trace.wdct (replay the trace's kQuerySubmit schedule),
/// stall_timeout_s=, allow_failures=0|1.

#include <iostream>

#include "net/load_driver.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace wdc;
  Config cfg;
  const auto positional = cfg.load_args(argc, argv);
  if (!positional.empty()) {
    std::cerr << "usage: wdc_load [key=value …]  (see README §wdc_load)\n";
    return 2;
  }
  try {
    net::LoadConfig lc;
    lc.host = cfg.get_string("host", lc.host);
    lc.port = static_cast<int>(cfg.get_int("port", lc.port));
    lc.unix_path = cfg.get_string("unix", "");
    lc.connections = static_cast<std::size_t>(
        cfg.get_int("conns", static_cast<long>(lc.connections)));
    lc.max_in_flight = static_cast<std::size_t>(
        cfg.get_int("in_flight", static_cast<long>(lc.max_in_flight)));
    lc.requests_per_conn = static_cast<std::uint64_t>(
        cfg.get_int("requests", static_cast<long>(lc.requests_per_conn)));
    lc.duration_s = cfg.get_double("duration_s", lc.duration_s);
    if (lc.duration_s > 0.0) lc.requests_per_conn = 0;
    lc.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    lc.poll_fraction = cfg.get_double("poll_fraction", lc.poll_fraction);
    lc.replay_path = cfg.get_string("replay", "");
    lc.stall_timeout_s = cfg.get_double("stall_timeout_s", lc.stall_timeout_s);
    const bool allow_failures = cfg.get_bool("allow_failures", false);
    cfg.require_all_used();

    net::LoadDriver driver(lc);
    std::string error;
    const bool ok = driver.run(&error);
    const net::LoadReport& r = driver.report();

    std::cout << "connections " << r.connects << " (attempts "
              << r.reconnect_attempts << ", failures " << r.conn_failures
              << ")\n"
              << "ops sent " << r.ops_sent() << " (requests "
              << r.requests_sent << ", polls " << r.polls_sent
              << "), answered " << r.ops_answered() << ", dropped "
              << r.dropped() << "\n"
              << "rx: reports " << r.reports_rx << ", items " << r.items_rx
              << ", data " << r.data_rx << ", invalidates "
              << r.invalidates_rx << ", sheds " << r.sheds_rx << "\n";
    if (!r.latencies.empty()) {
      std::cout << "latency_s p50 " << r.latency_quantile(0.50) << ", p90 "
                << r.latency_quantile(0.90) << ", p99 "
                << r.latency_quantile(0.99) << ", max "
                << r.latency_quantile(1.0) << "\n";
    }
    if (!ok) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    if (r.dropped() != 0 || (!allow_failures && r.conn_failures != 0)) {
      std::cerr << "error: dropped " << r.dropped() << " ops, "
                << r.conn_failures << " connection failures\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
