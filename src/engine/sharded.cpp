#include "engine/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "engine/run_stats.hpp"
#include "util/check.hpp"

namespace wdc {

namespace {

/// Threads actually used: `shard_threads` (0 = the hardware), never more than
/// one per cell.
std::uint32_t placement_threads(std::uint32_t requested, std::uint32_t cells) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw ? hw : 1u;
  }
  return std::min(requested, cells);
}

}  // namespace

ShardedSimulation::ShardedSimulation(Scenario scenario)
    : scenario_(std::move(scenario)),
      cells_n_(scenario_.shard_cells),
      threads_(placement_threads(scenario_.shard_threads, cells_n_)),
      ledger_(cells_n_, scenario_.shard_lag) {
  scenario_.validate();
}

ShardedSimulation::~ShardedSimulation() = default;

ClientSpan ShardedSimulation::cell_span(std::uint32_t c, std::uint32_t cells,
                                        std::uint32_t clients) {
  WDC_ASSERT(cells > 0 && c < cells, "cell ", c, " of ", cells);
  const std::uint32_t base = clients / cells;
  const std::uint32_t rem = clients % cells;
  const std::uint32_t begin = c * base + std::min(c, rem);
  const std::uint32_t size = base + (c < rem ? 1u : 0u);
  return ClientSpan{begin, begin + size};
}

void ShardedSimulation::run_cells(std::uint32_t t, double epoch_s,
                                  std::uint64_t epochs) {
  // Construction is the expensive part at large populations (channel
  // trajectory precompute is per-client and stays cell-local), so each
  // thread builds its own cells — in parallel with the other threads.
  for (std::uint32_t c = 0; c < cells_n_; ++c) {
    if (c % threads_ != t) continue;
    Scenario cs = scenario_;
    // Each cell writes its own trace file: the .wdct format carries one
    // cell's event stream, and concurrent writers must never share a sink.
    if (!cs.trace.file.empty() && cells_n_ > 1)
      cs.trace.file += ".cell" + std::to_string(c);
    cells_[c] = std::make_unique<Simulation>(
        cs, cell_span(c, cells_n_, scenario_.num_clients));
  }
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (std::uint32_t c = 0; c < cells_n_; ++c) {
      if (c % threads_ != t) continue;
      ledger_.begin_epoch(c, e);
      const double until =
          std::min(epoch_s * static_cast<double>(e + 1), scenario_.sim_time_s);
      cells_[c]->run_until(until);
      ledger_.complete_epoch(c, e, cells_[c]->epoch_seal());
    }
  }
  for (std::uint32_t c = 0; c < cells_n_; ++c) {
    if (c % threads_ != t) continue;
    cells_[c]->run_until(scenario_.sim_time_s);
    cells_[c]->simulator().trace().finalize();
  }
}

Metrics ShardedSimulation::run() {
  if (ran_) throw std::logic_error("ShardedSimulation::run called twice");
  ran_ = true;

  const double epoch_s = scenario_.proto.ir_interval_s;
  const std::uint64_t epochs = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(scenario_.sim_time_s / epoch_s)));
  cells_.resize(cells_n_);

  if (threads_ <= 1) {
    run_cells(0, epoch_s, epochs);
  } else {
    std::vector<std::exception_ptr> errors(threads_);
    std::vector<std::thread> pool;
    pool.reserve(threads_);
    for (std::uint32_t t = 0; t < threads_; ++t)
      pool.emplace_back([this, t, epoch_s, epochs, &errors] {
        try {
          run_cells(t, epoch_s, epochs);
        } catch (...) {
          errors[t] = std::current_exception();
          // Release every cell this thread owns so the surviving threads
          // don't wait forever at the barrier; the error rethrows after join.
          for (std::uint32_t c = 0; c < cells_n_; ++c)
            if (c % threads_ == t) ledger_.abandon(c);
        }
      });
    for (auto& th : pool) th.join();
    for (auto& err : errors)
      if (err) std::rethrow_exception(err);
  }

  // The fold runs on the collecting thread in fixed cell order 0..C-1 — the
  // float-valued Summary reductions are order-sensitive, and this ordering is
  // what keeps the digest independent of the thread placement.
  RunStats total;
  for (const auto& cell : cells_) total.merge(cell->run_stats());
  return finalize_run(scenario_, total);
}

}  // namespace wdc
