#ifndef WDC_ENGINE_REPLICATION_HPP
#define WDC_ENGINE_REPLICATION_HPP

/// @file replication.hpp
/// Independent-replication runner: a one-cell run_sweep (engine/sweep.hpp).
///
/// Each replication runs the same Scenario under a distinct seed derived from the
/// base seed via SplitMix64 — results are identical whatever the thread count
/// (per-replication state is fully isolated; see DESIGN.md §6).

#include <functional>
#include <vector>

#include "engine/metrics.hpp"
#include "engine/scenario.hpp"
#include "stats/ci.hpp"

namespace wdc {

/// Run `reps` replications of `scenario`. `threads` = 0 picks
/// hardware_concurrency (min 1). Results are ordered by replication index; a
/// throwing replication propagates as run_sweep documents.
std::vector<Metrics> run_replications(const Scenario& scenario, unsigned reps,
                                      unsigned threads = 0);

/// Extract one field from every replication and form its confidence interval.
ConfidenceInterval ci_of(const std::vector<Metrics>& reps,
                         const std::function<double(const Metrics&)>& field,
                         double conf = 0.95);

/// Field-wise mean across replications (counters averaged as doubles) for the
/// fields benches report most; convenience over calling ci_of repeatedly.
Metrics mean_of(const std::vector<Metrics>& reps);

}  // namespace wdc

#endif  // WDC_ENGINE_REPLICATION_HPP
