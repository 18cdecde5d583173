#include "engine/sharded.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/executor.hpp"
#include "engine/run_stats.hpp"
#include "util/check.hpp"

namespace wdc {

ShardedSimulation::ShardedSimulation(Scenario scenario)
    : scenario_(std::move(scenario)),
      cells_n_(scenario_.shard_cells),
      threads_(resolve_threads(scenario_.shard_threads, cells_n_)),
      ledger_(cells_n_, scenario_.shard_lag) {
  scenario_.validate();
  // Cells build concurrently, so the whole population must fit at once.
  require_construction_fits(scenario_, scenario_.num_clients);
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
  for (std::uint32_t c = t; c < cells_n_; c += threads_) {
    Scenario cs = scenario_;
    // Each cell writes its own trace file: the .wdct format carries one
    // cell's event stream, and concurrent writers must never share a sink.
    if (!cs.trace.file.empty() && cells_n_ > 1)
      cs.trace.file += ".cell" + std::to_string(c);
    cells_[c] = std::make_unique<Simulation>(
        cs, cell_span(c, cells_n_, scenario_.num_clients));
  }
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (std::uint32_t c = t; c < cells_n_; c += threads_) {
      ledger_.begin_epoch(c, e);
      const double until =
          std::min(epoch_s * static_cast<double>(e + 1), scenario_.sim_time_s);
      cells_[c]->run_until(until);
      ledger_.complete_epoch(c, e, cells_[c]->epoch_seal());
    }
  }
  for (std::uint32_t c = t; c < cells_n_; c += threads_) {
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

  std::vector<std::exception_ptr> errors(threads_);
  run_on_threads(threads_, [&](unsigned t) {
    try {
      run_cells(t, epoch_s, epochs);
    } catch (...) {
      errors[t] = std::current_exception();
      // Release every cell this thread owns so the surviving threads don't
      // wait forever at the barrier; the error rethrows after the join.
      for (std::uint32_t c = t; c < cells_n_; c += threads_)
        ledger_.abandon(c);
    }
  });
  for (auto& err : errors)
    if (err) std::rethrow_exception(err);

  // The fold runs on the collecting thread in fixed cell order 0..C-1 — the
  // float-valued Summary reductions are order-sensitive, and this ordering is
  // what keeps the digest independent of the thread placement.
  RunStats total;
  for (const auto& cell : cells_) total.merge(cell->run_stats());
  return finalize_run(scenario_, total);
}

}  // namespace wdc
