#ifndef WDC_ENGINE_SCENARIO_HPP
#define WDC_ENGINE_SCENARIO_HPP

/// @file scenario.hpp
/// Complete description of one simulation run — the single input of the public
/// API. Field defaults define the *default operating point* used throughout
/// EXPERIMENTS.md; benches sweep one knob at a time from here.

#include <cstdint>
#include <string>

#include "channel/pathloss.hpp"
#include "channel/downlinks.hpp"
#include "faults/fault_config.hpp"
#include "mac/broadcast_mac.hpp"
#include "mac/uplink.hpp"
#include "phy/mcs.hpp"
#include "proto/protocol.hpp"
#include "trace/trace_recorder.hpp"
#include "util/config.hpp"
#include "workload/database.hpp"
#include "workload/query_gen.hpp"
#include "workload/sleep_model.hpp"
#include "workload/traffic_gen.hpp"

namespace wdc {

/// How per-client mean SNR is assigned.
enum class SnrAssignment {
  kUniform,   ///< uniform in [mean − spread/2, mean + spread/2] (sweep-friendly)
  kPathLoss,  ///< link budget: tx_power − PL(distance) − noise, uniform-area drop
};

SnrAssignment snr_assignment_from_string(const std::string& name);
std::string to_string(SnrAssignment a);

/// Which PHY rate table the cell runs.
enum class RadioTable {
  kEdge,     ///< EDGE MCS-1…9, rates scaled by `edge_timeslots`
  kWifi11b,  ///< 802.11b 1/2/5.5/11 Mb/s
};

RadioTable radio_table_from_string(const std::string& name);
std::string to_string(RadioTable r);

struct Scenario {
  std::uint64_t seed = 1;
  double sim_time_s = 4000.0;
  double warmup_s = 400.0;

  ProtocolKind protocol = ProtocolKind::kTs;
  std::uint32_t num_clients = 50;

  DatabaseConfig db;
  QueryConfig query;
  SleepConfig sleep;
  TrafficConfig traffic;
  ProtoConfig proto;
  FadingConfig fading;
  MacConfig mac;
  UplinkConfig uplink;
  /// Query-lifecycle tracing (off by default; zero-cost when WDC_TRACE=OFF).
  TraceConfig trace;
  /// Fault injection (off by default; zero-cost when WDC_FAULTS=OFF).
  FaultConfig faults;

  // --- radio geometry / link budget ---
  SnrAssignment snr_assignment = SnrAssignment::kUniform;
  double mean_snr_db = 22.0;    ///< population mean (uniform mode)
  double snr_spread_db = 12.0;  ///< uniform mode: clients span mean ± spread/2
  PathLossModel pathloss;       ///< path-loss mode
  CellGeometry cell;
  double tx_power_dbm = 21.0;
  double noise_dbm = -100.0;
  RadioTable radio = RadioTable::kEdge;
  unsigned edge_timeslots = 4;  ///< EDGE downlink timeslot bundle

  // --- sharded-cell within-run parallelism (engine/sharded.hpp) ---
  /// The shard map: number of independent sub-cells the client population is
  /// partitioned into (contiguous blocks). Part of the *scenario semantics*:
  /// each cell is a full replica system (own kernel, MAC, server, fault
  /// injector) over its client block, synchronized at IR-epoch barriers.
  /// `shard_cells=1` is exactly the legacy single-cell simulation.
  std::uint32_t shard_cells = 1;
  /// OS threads running the cells (cell c → thread c % shard_threads, capped
  /// at shard_cells; 0 = the hardware). Execution-only: results are a pure
  /// function of (scenario, seed, shard map) and independent of this knob.
  std::uint32_t shard_threads = 1;
  /// Bounded-lag horizon in IR epochs: a cell may run at most this many
  /// epochs ahead of the slowest cell. Execution-only (any lag >= 1 admits
  /// the same per-cell event order).
  std::uint32_t shard_lag = 1;

  /// True when the run uses the sharded multi-cell core.
  bool sharded() const { return shard_cells > 1; }

  /// The MCS table the scenario's radio uses.
  McsTable make_mcs_table() const;

  /// Read overrides from a Config (key names documented in README). Unknown keys
  /// are left for the caller to reject via Config::require_all_used().
  static Scenario from_config(const Config& cfg);

  /// Same, but each override lands on top of `base` — the single-source-of-
  /// truth path for harnesses whose defaults differ from Scenario's (the
  /// bench-scale operating point of sweeps::default_scenario()). Keys absent
  /// from `cfg` keep base's values exactly; no key=value round-trip.
  static Scenario from_config(const Config& cfg, const Scenario& base);

  /// Validate cross-field invariants; throws std::invalid_argument on nonsense
  /// (e.g. a TS window smaller than the report period).
  void validate() const;
};

}  // namespace wdc

#endif  // WDC_ENGINE_SCENARIO_HPP
