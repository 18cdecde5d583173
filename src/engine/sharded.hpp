#ifndef WDC_ENGINE_SHARDED_HPP
#define WDC_ENGINE_SHARDED_HPP

/// @file sharded.hpp
/// Sharded-cell within-run parallelism: one scenario, many cores.
///
/// The client population is partitioned into `shard_cells` contiguous blocks;
/// each cell is a complete replica system — its own event kernel, channel
/// processes, MAC, uplink, fault injector, server and database replica —
/// simulating only its block. Cells interact solely through the authoritative
/// database state every broadcast report derives from, which is replicated
/// deterministically (identical seeds ⇒ identical update streams) and
/// *verified* at every IR-epoch barrier via sealed content digests
/// (EpochLedger). The IR cadence is the conservative sync horizon: with the
/// default lag of 1 a cell may run one epoch ahead of the slowest.
///
/// Determinism contract: the result is a pure function of
/// (scenario, seed, shard map = shard_cells). The execution knob
/// `shard_threads` (cell c → thread c % shard_threads) only schedules WHERE
/// cells run; per-cell event order is untouched and the metrics fold is in
/// fixed cell order, so digests are bit-identical across thread counts (the
/// `-L scale` tier proves it). At shard_cells=1 the cell IS the legacy
/// simulation: same seed chain, same event order, same golden digests.

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/epoch_ledger.hpp"
#include "engine/metrics.hpp"
#include "engine/scenario.hpp"
#include "engine/simulation.hpp"

namespace wdc {

class ShardedSimulation {
 public:
  explicit ShardedSimulation(Scenario scenario);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  /// Run all cells to scenario.sim_time_s and fold their metrics. Call once.
  Metrics run();

  std::uint32_t num_cells() const { return cells_n_; }

  /// Global client block of cell `c` under `cells`-way sharding: contiguous,
  /// balanced to within one client, covering [0, clients) exactly.
  static ClientSpan cell_span(std::uint32_t c, std::uint32_t cells,
                              std::uint32_t clients);

  // --- white-box accessors (valid after run()) ---
  const Simulation& cell(std::uint32_t c) const { return *cells_.at(c); }
  const EpochLedger& ledger() const { return ledger_; }

 private:
  /// Epoch loop for thread `t`: builds and steps every cell placed on this
  /// thread (cell c → thread c % threads_).
  void run_cells(std::uint32_t t, double epoch_s, std::uint64_t epochs);

  Scenario scenario_;
  std::uint32_t cells_n_;
  std::uint32_t threads_;
  EpochLedger ledger_;
  std::vector<std::unique_ptr<Simulation>> cells_;
  bool ran_ = false;
};

}  // namespace wdc

#endif  // WDC_ENGINE_SHARDED_HPP
