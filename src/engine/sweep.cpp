#include "engine/sweep.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "engine/replication.hpp"
#include "engine/simulation.hpp"
#include "stats/table.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace wdc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The scenario of one grid cell: base + variant mutation + axis value.
Scenario cell_scenario(const SweepSpec& spec, const Scenario& base,
                       std::size_t variant, std::size_t point) {
  Scenario s = base;
  if (spec.variants[variant].apply) spec.variants[variant].apply(s);
  if (spec.axis.apply) spec.axis.apply(s, spec.axis.values[point]);
  return s;
}

}  // namespace

std::vector<SweepVariant> protocol_variants(
    const std::vector<ProtocolKind>& protocols) {
  std::vector<SweepVariant> out;
  out.reserve(protocols.size());
  for (const auto p : protocols)
    out.push_back({to_string(p), [p](Scenario& s) { s.protocol = p; }});
  return out;
}

SweepAxis fault_ir_loss_axis(std::vector<double> values) {
  return {"IR loss p", std::move(values), [](Scenario& s, double v) {
            s.faults.enabled = true;
            s.faults.ir_loss = v;
          }};
}

SweepAxis fault_uplink_drop_axis(std::vector<double> values) {
  return {"uplink drop p", std::move(values), [](Scenario& s, double v) {
            s.faults.enabled = true;
            s.faults.uplink_drop = v;
          }};
}

SweepAxis fault_churn_rate_axis(std::vector<double> values) {
  return {"churn rate (1/s)", std::move(values), [](Scenario& s, double v) {
            s.faults.enabled = true;
            s.faults.churn_rate = v;
          }};
}

const SweepCell& SweepGrid::cell(std::size_t variant, std::size_t point) const {
  if (variant >= num_variants() || point >= num_points())
    throw std::out_of_range("SweepGrid::cell: index out of range");
  return cells[variant * num_points() + point];
}

ConfidenceInterval SweepGrid::ci(std::size_t variant, std::size_t point,
                                 const MetricField& field, double conf) const {
  return ci_of(cell(variant, point).reps, field, conf);
}

SweepGrid run_sweep(const SweepSpec& spec, const SweepOptions& opts,
                    const SweepProgressFn& progress) {
  const auto t0 = std::chrono::steady_clock::now();

  SweepGrid grid;
  grid.x_name = spec.axis.name;
  grid.xs = spec.axis.values;
  grid.reps = opts.reps;
  for (const auto& v : spec.variants) grid.variant_names.push_back(v.name);

  const std::size_t nv = spec.variants.size();
  const std::size_t np = spec.axis.values.size();
  const std::size_t ncells = nv * np;
  if (ncells == 0) {
    grid.wall_s = seconds_since(t0);
    return grid;
  }

  // Materialise every cell scenario and its replication seeds up front: a
  // SplitMix64 fan-out from the cell scenario's seed, so a cell depends on
  // its own scenario only (run_replications is the one-cell case).
  std::vector<Scenario> scenarios;
  scenarios.reserve(ncells);
  grid.cells.resize(ncells);
  for (std::size_t v = 0; v < nv; ++v) {
    for (std::size_t p = 0; p < np; ++p) {
      const std::size_t c = v * np + p;
      scenarios.push_back(cell_scenario(spec, opts.base, v, p));
      SweepCell& cell = grid.cells[c];
      cell.variant = v;
      cell.point = p;
      cell.x = spec.axis.values[p];
      cell.seeds.resize(opts.reps);
      SplitMix64 seeder(scenarios.back().seed);
      for (auto& s : cell.seeds) s = seeder.next();
      cell.reps.resize(opts.reps);
    }
  }

  const std::size_t ntasks = ncells * opts.reps;
  if (ntasks == 0) {
    // reps == 0: the cells exist, with no replications to run.
    for (auto& cell : grid.cells) {
      cell.seeds.clear();
      cell.reps.clear();
    }
    grid.wall_s = seconds_since(t0);
    return grid;
  }

  if (opts.trace_every > 0 && !opts.trace_dir.empty()) {
    std::error_code ec;  // best-effort: a failed mkdir degrades to ring-only
    std::filesystem::create_directories(opts.trace_dir, ec);
  }

  unsigned threads = opts.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, ntasks));
  grid.threads_used = threads;

  // One flat work queue over every (cell, replication) task. Each task writes
  // its own pre-sized slot, so workers never contend on results; only the
  // per-cell completion countdown and the progress callback are synchronised.
  std::vector<double> task_wall(ntasks, 0.0);
  std::vector<std::atomic<unsigned>> remaining(ncells);
  for (auto& r : remaining) r.store(opts.reps, std::memory_order_relaxed);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> cells_done{0};
  std::mutex progress_mu;
  // A throwing task stops the hand-out. Tasks are handed out in index order,
  // so every task below a failed one has started and finishes before the
  // join; the lowest failed index is then the task a serial run throws from.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::size_t error_task = ntasks;
  std::exception_ptr error;

  const auto run_task = [&](std::size_t t) {
    const std::size_t c = t / opts.reps;
    const std::size_t r = t % opts.reps;
    SweepCell& cell = grid.cells[c];
    Scenario sc = scenarios[c];
    sc.seed = cell.seeds[r];
    // Trace sampling rides on the already-derived seed, so enabling it can
    // never change which scenarios run or what they compute.
    if (opts.trace_every > 0 && r % opts.trace_every == 0) {
      sc.trace.enabled = true;
      if (!opts.trace_dir.empty())
        sc.trace.file = strfmt("%s/%s_v%zu_p%zu_r%zu.wdct",
                               opts.trace_dir.c_str(), spec.key.c_str(),
                               cell.variant, cell.point, r);
    }
    const auto rep_t0 = std::chrono::steady_clock::now();
    cell.reps[r] = run_scenario(sc);
    task_wall[t] = seconds_since(rep_t0);
    if (remaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last replication of this cell: its siblings' walls are visible now.
      for (std::size_t i = 0; i < opts.reps; ++i)
        cell.wall_s += task_wall[c * opts.reps + i];
      const std::size_t done =
          cells_done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (progress) {
        std::lock_guard<std::mutex> lock(progress_mu);
        progress(SweepProgress{done, ncells, &cell});
      }
    }
  };
  const auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= ntasks) return;
      try {
        run_task(t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (t < error_task) {
          error_task = t;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  if (error) std::rethrow_exception(error);

  grid.wall_s = seconds_since(t0);
  return grid;
}

void print_banner(const SweepSpec& spec, const SweepOptions& opts,
                  std::ostream& os) {
  os << "=== " << spec.id << ": " << spec.title << " ===\n";
  os << "(reconstructed evaluation — see EXPERIMENTS.md; " << opts.reps
     << " replications per point, " << opts.base.sim_time_s << "s simulated, "
     << opts.base.num_clients << " clients)\n\n";
}

void render_series(const SweepSpec& spec, const SweepGrid& grid,
                   std::ostream& os, const SweepRenderCtx& ctx) {
  for (const auto& series : spec.series) {
    os << series.title << ":\n";
    std::vector<std::string> cols{grid.x_name};
    for (const auto& name : grid.variant_names) cols.push_back(name);
    Table t(cols);
    for (std::size_t p = 0; p < grid.num_points(); ++p) {
      t.begin_row();
      t.cell(strfmt("%g", grid.xs[p]));
      for (std::size_t v = 0; v < grid.num_variants(); ++v) {
        const auto ci = grid.ci(v, p, series.field);
        t.cell_ci(ci.mean, ci.half_width, series.precision);
      }
    }
    t.print_text(os, "  ");
    if (!ctx.csv.empty()) {
      const std::string path = series.csv_prefix + ctx.csv;
      if (t.write_csv(path))
        os << "\n  [csv written to " << path << "]\n";
      else
        os << "\n  [FAILED to write " << path << "]\n";
    }
    os << "\n";
  }
}

void render(const SweepSpec& spec, const SweepGrid& grid, std::ostream& os,
            const SweepRenderCtx& ctx) {
  if (spec.render)
    spec.render(spec, grid, os, ctx);
  else
    render_series(spec, grid, os, ctx);
}

namespace {

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strfmt("\\u%04x", static_cast<unsigned>(c) & 0xffu);
        else
          out += c;
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  return strfmt("%.17g", v);
}

/// JSON keys for KernelCounters::scheduled_by_prio, in EventPriority order.
constexpr const char* kPrioNames[kNumEventPriorities] = {
    "channel", "tx_done", "protocol", "workload", "default", "stats"};

/// Mean of one kernel counter across a cell's replications.
template <typename Field>
double kernel_mean(const std::vector<Metrics>& reps, Field field) {
  if (reps.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& m : reps) sum += static_cast<double>(field(m.kernel));
  return sum / static_cast<double>(reps.size());
}

/// Per-cell event-kernel telemetry block (all zero when the build strips
/// perf counters — the schema stays stable either way).
void write_kernel_block(std::ostream& os, const std::vector<Metrics>& reps) {
  os << "\"kernel\": {"
     << "\"scheduled\": "
     << json_num(kernel_mean(reps, [](const KernelCounters& k) { return k.scheduled; }))
     << ", \"fired\": "
     << json_num(kernel_mean(reps, [](const KernelCounters& k) { return k.fired; }))
     << ", \"cancelled\": "
     << json_num(kernel_mean(reps, [](const KernelCounters& k) { return k.cancelled; }))
     << ", \"dead_skipped\": "
     << json_num(kernel_mean(reps, [](const KernelCounters& k) { return k.dead_skipped; }))
     << ", \"slots_reused\": "
     << json_num(kernel_mean(reps, [](const KernelCounters& k) { return k.slots_reused; }))
     << ", \"heap_peak\": "
     << json_num(kernel_mean(reps, [](const KernelCounters& k) { return k.heap_peak; }))
     << ", \"scheduled_by_prio\": {";
  for (std::size_t p = 0; p < kNumEventPriorities; ++p) {
    os << (p ? ", " : "") << "\"" << kPrioNames[p] << "\": "
       << json_num(kernel_mean(
              reps, [p](const KernelCounters& k) { return k.scheduled_by_prio[p]; }));
  }
  os << "}}";
}

/// Mean of one Metrics double across a cell's replications.
template <typename Field>
double metrics_mean(const std::vector<Metrics>& reps, Field field) {
  if (reps.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& m : reps) sum += field(m);
  return sum / static_cast<double>(reps.size());
}

/// Per-cell trace-derived latency decomposition (all zero when tracing was off
/// for every replication — the schema stays stable either way).
void write_decomp_block(std::ostream& os, const std::vector<Metrics>& reps) {
  os << "\"latency_decomposition\": {"
     << "\"ir_wait_s\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) { return m.ir_wait_s; }))
     << ", \"uplink_s\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) { return m.uplink_s; }))
     << ", \"bcast_wait_s\": "
     << json_num(
            metrics_mean(reps, [](const Metrics& m) { return m.bcast_wait_s; }))
     << ", \"airtime_s\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) { return m.airtime_s; }))
     << "}";
}

/// Per-cell fault/recovery telemetry (all zero when the fault layer is
/// disabled or compiled out — the schema stays stable either way).
void write_faults_block(std::ostream& os, const std::vector<Metrics>& reps) {
  os << "\"faults\": {"
     << "\"ir_drops\": "
     << json_num(metrics_mean(
            reps, [](const Metrics& m) { return static_cast<double>(m.fault_ir_drops); }))
     << ", \"bcast_drops\": "
     << json_num(metrics_mean(
            reps,
            [](const Metrics& m) { return static_cast<double>(m.fault_bcast_drops); }))
     << ", \"uplink_drops\": "
     << json_num(metrics_mean(
            reps,
            [](const Metrics& m) { return static_cast<double>(m.fault_uplink_drops); }))
     << ", \"churn_events\": "
     << json_num(metrics_mean(
            reps, [](const Metrics& m) { return static_cast<double>(m.churn_events); }))
     << ", \"churn_rejoins\": "
     << json_num(metrics_mean(
            reps, [](const Metrics& m) { return static_cast<double>(m.churn_rejoins); }))
     << ", \"recoveries\": "
     << json_num(metrics_mean(
            reps, [](const Metrics& m) { return static_cast<double>(m.recoveries); }))
     << ", \"mean_recovery_s\": "
     << json_num(
            metrics_mean(reps, [](const Metrics& m) { return m.mean_recovery_s; }))
     << ", \"stale_exposure\": "
     << json_num(metrics_mean(
            reps, [](const Metrics& m) { return static_cast<double>(m.stale_exposure); }))
     << ", \"corrupt_rejected\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) {
          return static_cast<double>(m.fault_corrupt_rejected);
        }))
     << ", \"corrupt_accepted\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) {
          return static_cast<double>(m.fault_corrupt_accepted);
        }))
     << ", \"server_crashes\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) {
          return static_cast<double>(m.server_crashes);
        }))
     << ", \"server_recoveries\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) {
          return static_cast<double>(m.server_recoveries);
        }))
     << ", \"crash_suppressed\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) {
          return static_cast<double>(m.crash_suppressed);
        }))
     << ", \"schedule_misses\": "
     << json_num(metrics_mean(reps, [](const Metrics& m) {
          return static_cast<double>(m.schedule_misses);
        }))
     << "}";
}

}  // namespace

bool write_json(const SweepSpec& spec, const SweepOptions& opts,
                const SweepGrid& grid, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n";
  os << "  \"schema\": \"wdc.sweep.v1\",\n";
  os << "  \"key\": \"" << json_escaped(spec.key) << "\",\n";
  os << "  \"id\": \"" << json_escaped(spec.id) << "\",\n";
  os << "  \"title\": \"" << json_escaped(spec.title) << "\",\n";
  os << "  \"x_name\": \"" << json_escaped(grid.x_name) << "\",\n";
  os << "  \"reps\": " << grid.reps << ",\n";
  os << "  \"threads\": " << grid.threads_used << ",\n";
  os << "  \"wall_s\": " << json_num(grid.wall_s) << ",\n";
  os << "  \"base\": {\n";
  os << "    \"seed\": " << opts.base.seed << ",\n";
  os << "    \"sim_time_s\": " << json_num(opts.base.sim_time_s) << ",\n";
  os << "    \"warmup_s\": " << json_num(opts.base.warmup_s) << ",\n";
  os << "    \"clients\": " << opts.base.num_clients << ",\n";
  os << "    \"items\": " << opts.base.db.num_items << "\n";
  os << "  },\n";
  os << "  \"cells\": [";
  for (std::size_t c = 0; c < grid.cells.size(); ++c) {
    const SweepCell& cell = grid.cells[c];
    os << (c == 0 ? "\n" : ",\n");
    os << "    {\"variant\": \""
       << json_escaped(grid.variant_names[cell.variant]) << "\", \"x\": "
       << json_num(cell.x) << ", \"wall_s\": " << json_num(cell.wall_s)
       << ",\n     \"seeds\": [";
    for (std::size_t i = 0; i < cell.seeds.size(); ++i)
      os << (i ? ", " : "") << cell.seeds[i];
    os << "],\n     \"series\": {";
    for (std::size_t s = 0; s < spec.series.size(); ++s) {
      const auto ci = ci_of(cell.reps, spec.series[s].field);
      os << (s ? ", " : "") << "\"" << json_escaped(spec.series[s].title)
         << "\": {\"mean\": " << json_num(ci.mean) << ", \"half_width\": "
         << json_num(ci.half_width) << ", \"n\": " << ci.n << "}";
    }
    os << "},\n     ";
    write_decomp_block(os, cell.reps);
    os << ",\n     ";
    write_faults_block(os, cell.reps);
    os << ",\n     ";
    write_kernel_block(os, cell.reps);
    os << "}";
  }
  os << "\n  ]\n}\n";
  return static_cast<bool>(os);
}

}  // namespace wdc
