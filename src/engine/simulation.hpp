#ifndef WDC_ENGINE_SIMULATION_HPP
#define WDC_ENGINE_SIMULATION_HPP

/// @file simulation.hpp
/// The top of the public API: build a full system from a Scenario and run it.
///
///   Scenario sc;                       // or Scenario::from_config(cfg)
///   sc.protocol = ProtocolKind::kHyb;
///   Simulation sim(sc);
///   Metrics m = sim.run();
///
/// A Simulation owns every component (kernel, downlinks, PHY/MAC, server
/// database, protocols, workload generators) wired exactly as DESIGN.md describes.
/// Accessors expose the internals for white-box tests.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "engine/metrics.hpp"
#include "engine/run_stats.hpp"
#include "engine/scenario.hpp"
#include "faults/fault_injector.hpp"
#include "mac/broadcast_mac.hpp"
#include "mac/uplink.hpp"
#include "phy/mcs.hpp"
#include "proto/factory.hpp"
#include "proto/stats_sink.hpp"
#include "sim/simulator.hpp"
#include "workload/database.hpp"
#include "workload/query_gen.hpp"
#include "workload/sleep_model.hpp"
#include "workload/traffic_gen.hpp"

namespace wdc {

/// Contiguous block of global client indices one cell simulates (sharded
/// runs; the legacy constructor uses the full [0, num_clients) span).
struct ClientSpan {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;  ///< one past the last client
  std::uint32_t size() const { return end - begin; }
};

/// What a cell's per-client state costs to build, from the per-client
/// footprint of every layer (see construction_estimate).
struct ConstructionEstimate {
  std::uint64_t clients = 0;
  std::uint64_t bytes_per_client = 0;
  std::uint64_t total_bytes() const { return clients * bytes_per_client; }
};

/// Bytes that building `clients` clients of `sc` allocates, counted before
/// anything is allocated: the concrete client object (with what its
/// constructor reserves), its SleepModel and QueryGenerator slots, its
/// downlink (bank lanes or per-link model), its MAC registration, and the
/// events its workload queues at construction, plus the allocator's header on
/// each per-client heap block. State that grows while the run goes (cache
/// slabs and indexes, pending queries) is not in it.
ConstructionEstimate construction_estimate(const Scenario& sc,
                                           std::uint32_t clients);

/// Throws std::runtime_error naming the client count, the bytes per client
/// and the estimate when construction_estimate(sc, clients) exceeds the
/// host's physical memory (sysconf). Allocates nothing on the way.
void require_construction_fits(const Scenario& sc, std::uint32_t clients);

class Simulation {
 public:
  /// Both constructors throw std::runtime_error, before allocating any
  /// per-client state, when construction_estimate for their clients exceeds
  /// the host's physical memory.
  explicit Simulation(Scenario scenario);

  /// Build one cell of a sharded run: only clients in `span` exist here, but
  /// every per-client RNG stream is derived at its GLOBAL index — the seed
  /// chain draws (and discards) for out-of-span clients in exactly the legacy
  /// order, so client g's randomness is the same no matter which cell owns it
  /// and the full span reproduces the legacy construction bit-for-bit.
  Simulation(Scenario scenario, ClientSpan span);

  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Run to scenario.sim_time_s and collect metrics. Call once.
  Metrics run();

  /// Advance the clock without finishing (incremental runs for tests/examples
  /// and the sharded core's epoch stepping).
  void run_until(SimTime t) { sim_.run_until(t); }
  /// Collect metrics for the interval simulated so far.
  Metrics collect() const;

  /// Raw accumulator snapshot (the sharded core folds one per cell, in cell
  /// order, then calls finalize_run — see run_stats.hpp).
  RunStats run_stats() const;

  /// Digest of the authoritative database state (update count, per-item
  /// versions and update times) plus the clock — the content every broadcast
  /// report derives from. Cells publish it at each epoch barrier; the ledger
  /// seals the first copy and WDC_CHECKs the rest against it, proving all
  /// cells observed the identical report-content stream.
  std::uint64_t epoch_seal() const;

  // --- white-box accessors ---
  Simulator& simulator() { return sim_; }
  BroadcastMac& mac() { return *mac_; }
  Database& database() { return *db_; }
  ServerProtocol& server() { return *server_; }
  ClientProtocol& client(std::size_t i) { return *clients_.at(i); }
  std::size_t num_clients() const { return clients_.size(); }
  const StatsSink& sink() const { return *sink_; }
  const Scenario& scenario() const { return scenario_; }
  const FaultInjector& faults() const { return *faults_; }
  const ClientSpan& span() const { return span_; }
  /// Global index of local client `i` (cells address clients locally).
  std::uint32_t global_client_id(std::uint32_t i) const { return span_.begin + i; }

 private:
  double client_mean_snr(Rng& rng) const;

  Scenario scenario_;
  ClientSpan span_;
  Simulator sim_;
  McsTable table_;
  Downlinks links_;
  std::unique_ptr<BroadcastMac> mac_;
  std::unique_ptr<UplinkChannel> uplink_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<StatsSink> sink_;
  std::unique_ptr<ServerProtocol> server_;
  /// The Zipf query model's popularity table, shared by every generator.
  std::optional<Zipf> popularity_;
  /// Per-client workload state in flat arrays sized once to the span. Both
  /// types schedule events that capture `this` in their constructors, so
  /// they are built in place (emplace) and never move.
  std::unique_ptr<std::optional<SleepModel>[]> sleeps_;
  std::vector<std::unique_ptr<ClientProtocol>> clients_;
  std::unique_ptr<std::optional<QueryGenerator>[]> queries_;
  std::unique_ptr<TrafficGenerator> traffic_;
  bool ran_ = false;
};

/// One-call convenience: build, run, return metrics.
Metrics run_scenario(const Scenario& scenario);

}  // namespace wdc

#endif  // WDC_ENGINE_SIMULATION_HPP
