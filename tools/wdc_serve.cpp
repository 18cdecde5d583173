/// @file wdc_serve.cpp
/// The network front-end daemon: real sockets, real clocks, the same protocol
/// state machines the simulator runs (the simulator is this server's
/// deterministic twin).
///
///   wdc_serve [key=value …]
///
/// Transport keys: host= port= (0 = ephemeral, printed on stdout) | unix=path,
/// time_scale=, read_timeout_s=, write_timeout_s=, max_write_backlog=,
/// link_snr_db=, trace_out=out.wdct, duration_s= (0 = until SIGINT/SIGTERM).
/// Everything else is the full Scenario key set (protocol=, seed=, …).

#include <csignal>
#include <iostream>
#include <thread>

#include "engine/scenario.hpp"
#include "net/serve_app.hpp"
#include "util/config.hpp"

namespace {

wdc::net::ServeApp* g_app = nullptr;

void on_signal(int) {
  if (g_app != nullptr) g_app->request_stop();
}

void print_stats(const wdc::net::ServeStats& s) {
  std::cout << "accepted " << s.accepted << ", closed " << s.closed
            << ", hellos " << s.hellos << "\n"
            << "requests " << s.requests << ", polls " << s.polls
            << ", answers " << s.answers << ", dropped_answers "
            << s.dropped_answers << "\n"
            << "tx: reports " << s.reports_tx << ", items " << s.items_tx
            << ", data " << s.data_tx << ", control " << s.control_tx << "\n"
            << "shed: frames " << s.shed_frames << ", connections "
            << s.shed_connections << "\n"
            << "timeouts: read " << s.read_timeouts << ", write "
            << s.write_timeouts << "; decode_errors " << s.decode_errors
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wdc;
  Config cfg;
  const auto positional = cfg.load_args(argc, argv);
  if (!positional.empty()) {
    std::cerr << "usage: wdc_serve [key=value …]  (see README §wdc_serve)\n";
    return 2;
  }
  try {
    net::ServeConfig sc;
    sc.host = cfg.get_string("host", sc.host);
    sc.port = static_cast<int>(cfg.get_int("port", sc.port));
    sc.unix_path = cfg.get_string("unix", "");
    sc.time_scale = cfg.get_double("time_scale", sc.time_scale);
    sc.read_timeout_s = cfg.get_double("read_timeout_s", sc.read_timeout_s);
    sc.write_timeout_s = cfg.get_double("write_timeout_s", sc.write_timeout_s);
    sc.max_write_backlog = static_cast<std::size_t>(
        cfg.get_int("max_write_backlog", static_cast<long>(sc.max_write_backlog)));
    sc.link_snr_db = cfg.get_double("link_snr_db", sc.link_snr_db);
    // "trace" is the Scenario's bool knob; the measured-trace output file is
    // its own key.
    sc.trace_path = cfg.get_string("trace_out", "");
    const double duration_s = cfg.get_double("duration_s", 0.0);
    sc.scenario = Scenario::from_config(cfg);
    cfg.require_all_used();
    sc.scenario.validate();

    net::ServeApp app(std::move(sc));
    std::string error;
    if (!app.start(&error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    g_app = &app;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    if (!app.config().unix_path.empty()) {
      std::cout << "listening on " << app.config().unix_path << "\n"
                << std::flush;
    } else {
      std::cout << "listening on port " << app.port() << "\n" << std::flush;
    }

    std::thread timer;
    if (duration_s > 0.0) {
      timer = std::thread([&app, duration_s] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(duration_s));
        app.request_stop();
      });
    }
    app.run();
    if (timer.joinable()) timer.join();
    g_app = nullptr;
    print_stats(app.stats());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
