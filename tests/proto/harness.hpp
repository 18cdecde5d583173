#ifndef WDC_TESTS_PROTO_HARNESS_HPP
#define WDC_TESTS_PROTO_HARNESS_HPP

/// Deterministic protocol test harness: ideal channel (fixed SNR), no background
/// traffic, no automatic updates or queries — the test drives everything by hand
/// and reads the shared StatsSink.

#include <memory>
#include <vector>

#include "channel/downlinks.hpp"
#include "mac/broadcast_mac.hpp"
#include "mac/uplink.hpp"
#include "proto/factory.hpp"
#include "proto/stats_sink.hpp"
#include "sim/simulator.hpp"
#include "workload/database.hpp"

namespace wdc {

class ProtoHarness {
 public:
  explicit ProtoHarness(ProtocolKind kind, std::size_t num_clients = 2,
                        double snr_db = 50.0, ProtoConfig pcfg = default_proto(),
                        MacConfig mac_cfg = MacConfig{}) {
    table_ = std::make_unique<McsTable>(McsTable::edge());
    for (std::size_t i = 0; i < num_clients; ++i) links_.add(snr_db, Rng(0));
    mac_ = std::make_unique<BroadcastMac>(sim_, *table_, mac_cfg, Rng(11),
                                          links_);
    uplink_ = std::make_unique<UplinkChannel>(sim_, UplinkConfig{0.01, 0.0}, Rng(12));
    DatabaseConfig dbc;
    dbc.num_items = 100;
    dbc.update_rate = 0.0;  // manual updates only
    db_ = std::make_unique<Database>(sim_, dbc, Rng(13));
    sink_ = std::make_unique<StatsSink>(0.0);
    server_ = make_server(kind, sim_, *mac_, *db_, pcfg);
    for (std::size_t i = 0; i < num_clients; ++i)
      clients_.push_back(make_client(kind, sim_, *mac_, *uplink_, *server_, *db_,
                                     pcfg, *sink_, Rng(100 + i)));
    server_->start();
  }

  static ProtoConfig default_proto() {
    ProtoConfig cfg;
    cfg.ir_interval_s = 10.0;
    cfg.window_mult = 3.0;
    return cfg;
  }

  /// Put the client to sleep / wake it (mirrors what SleepModel would do).
  void set_awake(std::size_t i, bool awake) {
    if (clients_[i]->reachable() == awake) return;
    clients_[i]->on_sleep_transition(awake);
  }

  Simulator sim_;
  std::unique_ptr<McsTable> table_;
  Downlinks links_{FadingConfig{.model = FadingModel::kNone}};
  std::unique_ptr<BroadcastMac> mac_;
  std::unique_ptr<UplinkChannel> uplink_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<StatsSink> sink_;
  std::unique_ptr<ServerProtocol> server_;
  std::vector<std::unique_ptr<ClientProtocol>> clients_;
};

}  // namespace wdc

#endif  // WDC_TESTS_PROTO_HARNESS_HPP
