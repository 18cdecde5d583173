#ifndef WDC_ENGINE_SWEEP_HPP
#define WDC_ENGINE_SWEEP_HPP

/// @file sweep.hpp
/// Declarative sweep grids — the engine behind every reconstructed figure and
/// table (src/sweeps) and their shape-regression tests (tests/shapes).
///
/// A SweepSpec names a grid: one x-axis, a set of scenario variants (usually
/// protocols), and the metric series to extract. run_sweep() executes the full
/// (variant × point × replication) grid on ONE shared worker pool, so a
/// 5-protocol × 5-point figure keeps every core busy instead of serialising 25
/// per-cell replication batches. Results are bit-identical whatever the thread
/// count: per-cell replication seeds come from SplitMix64 seeded with the cell
/// scenario's seed, and cells are stored in (variant, point, replication)
/// order. run_replications (engine/replication.hpp) is the one-cell grid.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/metrics.hpp"
#include "engine/scenario.hpp"
#include "stats/ci.hpp"

namespace wdc {

/// One metric extracted from a run.
using MetricField = std::function<double(const Metrics&)>;

/// One column of a grid: a named mutation of the base scenario.
struct SweepVariant {
  std::string name;                      ///< column label ("TS", "TS+AMC", …)
  std::function<void(Scenario&)> apply;  ///< may be empty (base as-is)
};

/// The usual variant set: one per protocol, labelled by to_string().
std::vector<SweepVariant> protocol_variants(
    const std::vector<ProtocolKind>& protocols);

/// The swept knob. Single-point tables use one dummy value and no apply.
struct SweepAxis {
  std::string name;                              ///< x column header ("L (s)")
  std::vector<double> values;
  std::function<void(Scenario&, double)> apply;  ///< may be empty
};

/// Fault-grid axes (src/faults): each applied value also flips faults on, so a
/// zero point still exercises the enabled-but-lossless path.
SweepAxis fault_ir_loss_axis(std::vector<double> values);
SweepAxis fault_uplink_drop_axis(std::vector<double> values);
SweepAxis fault_churn_rate_axis(std::vector<double> values);

/// One reported metric: a printed/CSV table and a JSON series.
struct SweepSeries {
  std::string title;       ///< heading above the table / JSON series key
  std::string csv_prefix;  ///< prepended to the csv path; "" = bare path
  MetricField field;
  int precision = 3;
};

struct SweepGrid;
struct SweepSpec;

/// Presentation inputs shared by the standard and custom renderers.
struct SweepRenderCtx {
  std::string csv;  ///< base CSV path; empty = don't write files
};

/// A figure/table declaration. Execution state lives in SweepGrid, not here,
/// so one spec can be run at many operating points (bench scale, test scale).
struct SweepSpec {
  std::string key;    ///< driver selector ("fig1")
  std::string id;     ///< banner id ("FIG-1")
  std::string title;  ///< banner title
  SweepAxis axis;
  std::vector<SweepVariant> variants;
  std::vector<SweepSeries> series;
  /// Spec-specific operating point applied on top of the resolved base
  /// (FIG-7's small-population fading regime, TAB-2's loaded cell, …).
  std::function<void(Scenario&)> adjust_base;
  /// Custom presentation (TAB-1's metric rows, FIG-10's paired columns);
  /// empty = the standard per-series tables of render_series().
  std::function<void(const SweepSpec&, const SweepGrid&, std::ostream&,
                     const SweepRenderCtx&)>
      render;
};

struct SweepOptions {
  unsigned reps = 3;
  unsigned threads = 0;  ///< workers shared across the whole grid; 0 = hardware
  Scenario base;
  /// Trace sampling: record a query-lifecycle trace for every k-th replication
  /// of each cell (0 = never). Sampled replications write one .wdct file into
  /// trace_dir, named <key>_v<variant>_p<point>_r<rep>.wdct. Tracing never
  /// perturbs results: seeds are derived before the trace config is applied.
  unsigned trace_every = 0;
  std::string trace_dir = "traces";
};

/// One executed (variant, point) cell.
struct SweepCell {
  std::size_t variant = 0;
  std::size_t point = 0;
  double x = 0.0;
  std::vector<std::uint64_t> seeds;  ///< per-replication seeds actually used
  std::vector<Metrics> reps;         ///< ordered by replication index
  double wall_s = 0.0;               ///< summed replication wall-clock time
};

/// Fired once per completed cell (all its replications done), serialised by an
/// internal mutex; `cell` points into the grid under construction.
struct SweepProgress {
  std::size_t cells_done = 0;
  std::size_t cells_total = 0;
  const SweepCell* cell = nullptr;
};
using SweepProgressFn = std::function<void(const SweepProgress&)>;

/// An executed grid: cells ordered by (variant, point), replications within a
/// cell ordered by index — scheduling can never reorder results.
struct SweepGrid {
  std::vector<std::string> variant_names;
  std::string x_name;
  std::vector<double> xs;
  unsigned reps = 0;
  unsigned threads_used = 1;
  double wall_s = 0.0;  ///< wall-clock of the whole grid execution
  std::vector<SweepCell> cells;

  std::size_t num_variants() const { return variant_names.size(); }
  std::size_t num_points() const { return xs.size(); }
  const SweepCell& cell(std::size_t variant, std::size_t point) const;
  /// CI of `field` over the cell's replications.
  ConfidenceInterval ci(std::size_t variant, std::size_t point,
                        const MetricField& field, double conf = 0.95) const;
};

/// Execute the grid. Empty variant/axis sets yield an empty grid; reps = 0
/// yields cells with no replications. If a replication throws, no further
/// tasks start and, once the running ones finish, the exception of the
/// lowest-indexed failing task is rethrown — the one a serial run throws,
/// whatever the thread count.
SweepGrid run_sweep(const SweepSpec& spec, const SweepOptions& opts,
                    const SweepProgressFn& progress = {});

/// The classic bench banner ("=== FIG-1: … ===" plus the operating point).
void print_banner(const SweepSpec& spec, const SweepOptions& opts,
                  std::ostream& os);

/// Standard presentation: per series, a "title:" heading and an aligned table
/// (x column + one column per variant, cells "mean ± hw"), with a CSV written
/// to csv_prefix + ctx.csv. Byte-compatible with the pre-engine bench output.
void render_series(const SweepSpec& spec, const SweepGrid& grid,
                   std::ostream& os, const SweepRenderCtx& ctx);

/// Dispatch to the spec's custom renderer, or render_series when absent.
void render(const SweepSpec& spec, const SweepGrid& grid, std::ostream& os,
            const SweepRenderCtx& ctx);

/// Machine-readable record of a run: spec identity, operating point, and per
/// cell the seeds, wall time, and a CI per series. False on I/O failure.
bool write_json(const SweepSpec& spec, const SweepOptions& opts,
                const SweepGrid& grid, const std::string& path);

}  // namespace wdc

#endif  // WDC_ENGINE_SWEEP_HPP
