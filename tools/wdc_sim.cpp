/// @file wdc_sim.cpp
/// The command-line driver for wdc-sim.
///
///   wdc_sim run [key=value …]
///       One simulation; prints every metric, then (single cell) a
///       `construction` line: set-up wall time, minor faults and peak RSS.
///       (What examples/quickstart does, plus optional multi-replication CIs
///       via reps=N.)
///
///   wdc_sim compare [protocols=TS,UIR,HYB] [key=value …]
///       All requested protocols at one operating point, one row each.
///
///   wdc_sim sweep sweep_key=<scenario key> sweep_values=a,b,c
///           [protocols=TS,HYB] [metric=mean_latency_s] [key=value …]
///       Generic one-knob sweep: any numeric scenario key on the x-axis, any
///       Metrics field on the y-axis, CSV export via csv=path.
///
/// Every subcommand accepts the full scenario key set (see README) plus
/// reps= (default 1 for run, 3 otherwise), threads= and csv=. An unknown key
/// is an error (exit 1), never silently ignored.

#include <sys/resource.h>

#include <chrono>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/replication.hpp"
#include "engine/simulation.hpp"
#include "stats/table.hpp"
#include "util/config.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wdc;

/// Metric registry: name → extractor (the y-axes `sweep` understands).
const std::map<std::string, std::function<double(const Metrics&)>>& metric_registry() {
  static const std::map<std::string, std::function<double(const Metrics&)>> kMap = {
      {"mean_latency_s", [](const Metrics& m) { return m.mean_latency_s; }},
      {"p50_latency_s", [](const Metrics& m) { return m.p50_latency_s; }},
      {"p90_latency_s", [](const Metrics& m) { return m.p90_latency_s; }},
      {"p99_latency_s", [](const Metrics& m) { return m.p99_latency_s; }},
      {"hit_ratio", [](const Metrics& m) { return m.hit_ratio; }},
      {"report_loss_rate", [](const Metrics& m) { return m.report_loss_rate; }},
      {"uplink_per_query", [](const Metrics& m) { return m.uplink_per_query; }},
      {"mac_busy_frac", [](const Metrics& m) { return m.mac_busy_frac; }},
      {"cache_drops", [](const Metrics& m) { return double(m.cache_drops); }},
      {"stale_serves", [](const Metrics& m) { return double(m.stale_serves); }},
      {"radio_on_frac", [](const Metrics& m) { return m.radio_on_frac; }},
      {"listen_airtime_per_query",
       [](const Metrics& m) { return m.listen_airtime_per_query; }},
      {"report_overhead_frac",
       [](const Metrics& m) { return m.report_overhead_frac; }},
      {"data_queue_delay_s", [](const Metrics& m) { return m.data_queue_delay_s; }},
      {"ir_wait_s", [](const Metrics& m) { return m.ir_wait_s; }},
      {"uplink_s", [](const Metrics& m) { return m.uplink_s; }},
      {"bcast_wait_s", [](const Metrics& m) { return m.bcast_wait_s; }},
      {"airtime_s", [](const Metrics& m) { return m.airtime_s; }},
  };
  return kMap;
}

std::vector<ProtocolKind> parse_protocols(const std::string& csv) {
  std::vector<ProtocolKind> out;
  for (const auto& tok : split(csv, ','))
    if (!trim(tok).empty()) out.push_back(protocol_from_string(std::string(trim(tok))));
  if (out.empty()) throw std::runtime_error("no protocols given");
  return out;
}

/// Builds a single-cell simulation and returns its "construction" line: the
/// set-up's wall time and minor faults, and the process's peak RSS after it.
/// Host measurements, kept out of Metrics and its digest.
std::string build_timed(const Scenario& sc, std::unique_ptr<Simulation>& sim) {
  rusage r0{};
  rusage r1{};
  getrusage(RUSAGE_SELF, &r0);
  const auto t0 = std::chrono::steady_clock::now();
  sim = std::make_unique<Simulation>(sc);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  getrusage(RUSAGE_SELF, &r1);
  return strfmt(
      "construction       %.3f s, %ld minor faults, peak RSS %.1f MB\n",
      wall.count(), r1.ru_minflt - r0.ru_minflt,
      static_cast<double>(r1.ru_maxrss) / 1024.0);
}

int cmd_run(Config& cfg) {
  const auto reps = cfg.get_count("reps", 1u);
  const auto threads = cfg.get_count("threads", 0u);
  const Scenario sc = Scenario::from_config(cfg);
  cfg.require_all_used();
  if (reps <= 1) {
    // A sharded run builds its cells inside run(), so only a single cell
    // reports its construction.
    std::string construction;
    Metrics m;
    if (sc.sharded()) {
      m = run_scenario(sc);
    } else {
      std::unique_ptr<Simulation> sim;
      construction = build_timed(sc, sim);
      m = sim->run();
    }
    std::cout << "protocol " << to_string(sc.protocol) << ", seed " << sc.seed
              << ", " << m.sim_time_s << "s simulated, " << m.events
              << " events\n\n";
    m.print(std::cout);
    std::cout << construction;
    return m.stale_serves == 0 || sc.protocol == ProtocolKind::kCbl ? 0 : 1;
  }
  const auto rs = run_replications(sc, reps, threads);
  std::cout << "protocol " << to_string(sc.protocol) << ", " << reps
            << " replications\n\n";
  Table t({"metric", "mean ± 95% CI"});
  for (const auto& [name, field] : metric_registry()) {
    const auto ci = ci_of(rs, field);
    t.begin_row();
    t.cell(name);
    t.cell_ci(ci.mean, ci.half_width, 4);
  }
  t.print_text(std::cout, "  ");
  return 0;
}

int cmd_compare(Config& cfg) {
  const auto reps = cfg.get_count("reps", 3u);
  const auto threads = cfg.get_count("threads", 0u);
  const auto protocols =
      parse_protocols(cfg.get_string("protocols", "TS,AT,SIG,UIR,LAIR,PIG,HYB"));
  const std::string csv = cfg.get_string("csv", "");
  const Scenario base = Scenario::from_config(cfg);
  cfg.require_all_used();

  Table t({"protocol", "latency (s)", "p90 (s)", "hit ratio", "loss",
           "uplink/q", "busy", "stale"});
  for (const auto p : protocols) {
    Scenario s = base;
    s.protocol = p;
    const auto rs = run_replications(s, reps, threads);
    const auto f = [&](const std::function<double(const Metrics&)>& field) {
      return ci_of(rs, field);
    };
    t.begin_row();
    t.cell(to_string(p));
    const auto lat = f([](const Metrics& m) { return m.mean_latency_s; });
    t.cell_ci(lat.mean, lat.half_width, 2);
    t.cell(f([](const Metrics& m) { return m.p90_latency_s; }).mean, 2);
    t.cell(f([](const Metrics& m) { return m.hit_ratio; }).mean, 3);
    t.cell(f([](const Metrics& m) { return m.report_loss_rate; }).mean, 3);
    t.cell(f([](const Metrics& m) { return m.uplink_per_query; }).mean, 3);
    t.cell(f([](const Metrics& m) { return m.mac_busy_frac; }).mean, 3);
    t.cell(f([](const Metrics& m) { return double(m.stale_serves); }).mean, 1);
    std::cerr << "." << std::flush;
  }
  std::cerr << "\n";
  t.print_text(std::cout, "  ");
  if (!csv.empty() && t.write_csv(csv))
    std::cout << "\n[csv written to " << csv << "]\n";
  return 0;
}

int cmd_sweep(Config& cfg) {
  const std::string key = cfg.get_string("sweep_key", "");
  const std::string values_csv = cfg.get_string("sweep_values", "");
  if (key.empty() || values_csv.empty())
    throw std::runtime_error(
        "sweep needs sweep_key=<scenario key> sweep_values=a,b,c");
  const std::string metric_name = cfg.get_string("metric", "mean_latency_s");
  const auto metric_it = metric_registry().find(metric_name);
  if (metric_it == metric_registry().end()) {
    std::cerr << "unknown metric '" << metric_name << "'; available:\n";
    for (const auto& [name, _] : metric_registry()) std::cerr << "  " << name << "\n";
    return 2;
  }
  const auto reps = cfg.get_count("reps", 3u);
  const auto threads = cfg.get_count("threads", 0u);
  const auto protocols = parse_protocols(cfg.get_string("protocols", "TS,UIR,HYB"));
  const std::string csv = cfg.get_string("csv", "");

  std::vector<std::string> xs;
  for (const auto& tok : split(values_csv, ','))
    if (!trim(tok).empty()) xs.emplace_back(trim(tok));

  std::vector<std::string> cols{key};
  for (const auto p : protocols) cols.push_back(to_string(p));
  Table t(cols);
  for (const auto& x : xs) {
    t.begin_row();
    t.cell(x);
    for (const auto p : protocols) {
      Config point = cfg;   // the sweep point overrides the base config
      point.set(key, x);
      point.set("protocol", to_string(p));
      Scenario s = Scenario::from_config(point);
      point.require_all_used();  // the copy that parsed the scenario
      const auto rs = run_replications(s, reps, threads);
      const auto ci = ci_of(rs, metric_it->second);
      t.cell_ci(ci.mean, ci.half_width, 4);
      std::cerr << "." << std::flush;
    }
  }
  std::cerr << "\n";
  std::cout << metric_name << " vs " << key << ":\n";
  t.print_text(std::cout, "  ");
  if (!csv.empty() && t.write_csv(csv))
    std::cout << "\n[csv written to " << csv << "]\n";
  return 0;
}

void usage() {
  std::cerr <<
      "usage: wdc_sim <run|compare|sweep> [key=value …]\n"
      "  run      one scenario (reps=N for CI table)\n"
      "  compare  protocols side by side (protocols=TS,UIR,…)\n"
      "  sweep    sweep_key=<key> sweep_values=a,b,c [metric=…] [protocols=…]\n"
      "common keys: any Scenario knob (see README), reps=, threads=, csv=\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  const auto positional = cfg.load_args(argc, argv);
  if (positional.size() != 1) {
    usage();
    return 2;
  }
  try {
    if (positional[0] == "run") return cmd_run(cfg);
    if (positional[0] == "compare") return cmd_compare(cfg);
    if (positional[0] == "sweep") return cmd_sweep(cfg);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
