/// @file wdc_bench.cpp
/// The figure/table driver: every reconstructed sweep of EXPERIMENTS.md is a
/// registered SweepSpec (src/sweeps), executed here on the shared grid engine
/// (engine/sweep.hpp) — the whole (protocol × point × replication) grid runs
/// on one worker pool.
///
///   wdc_bench                 list the registered sweeps
///   wdc_bench fig1            run FIG-1 at the bench-scale operating point
///   wdc_bench fig4 tab3 ...   several sweeps (csv/json get a key_ prefix)
///   wdc_bench all             the full reconstructed evaluation
///
/// Options: reps=3 threads=0 csv=out.csv json=out.json plus any scenario key
/// (forwarded into the base scenario, each landing exactly once). threads=0
/// uses every hardware thread across the whole grid.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "sweeps/sweeps.hpp"
#include "util/config.hpp"

namespace {

using namespace wdc;

void print_usage() {
  std::cout << "usage: wdc_bench <sweep>... [key=value ...]\n\n"
            << "registered sweeps (run `wdc_bench all` for the full suite):\n";
  for (const auto& spec : sweeps::all())
    std::cout << "  " << spec.key << (spec.key.size() < 5 ? "  " : " ") << " "
              << spec.id << ": " << spec.title << "\n";
  std::cout << "\noptions: reps=3 threads=0 csv=out.csv json=out.json "
               "trace_every=0 trace_dir=traces plus any "
               "scenario key\n(threads=0 = all hardware threads over the whole "
               "grid; see EXPERIMENTS.md)\n";
}

int run(int argc, char** argv) {
  Config cfg;
  std::vector<std::string> keys = cfg.load_args(argc, argv);
  if (keys.size() == 1 && (keys[0] == "all" || keys[0] == "ALL")) {
    keys.clear();
    for (const auto& spec : sweeps::all()) keys.push_back(spec.key);
  }
  if (keys.empty() || keys[0] == "list" || keys[0] == "help") {
    print_usage();
    return keys.empty() ? 2 : 0;
  }

  const SweepOptions base_opts = sweeps::options_from_config(cfg);
  const std::string csv = cfg.get_string("csv", "");
  const std::string json = cfg.get_string("json", "");
  cfg.require_all_used();

  for (const auto& key : keys) {
    const SweepSpec* spec = sweeps::find(key);
    if (spec == nullptr) {
      std::cerr << "wdc_bench: unknown sweep '" << key << "'\n\n";
      print_usage();
      return 2;
    }
  }

  for (const auto& key : keys) {
    const SweepSpec& spec = *sweeps::find(key);
    SweepOptions opts = base_opts;
    if (spec.adjust_base) spec.adjust_base(opts.base);
    print_banner(spec, opts, std::cout);

    const auto grid = run_sweep(spec, opts, [](const SweepProgress&) {
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    });
    std::fprintf(stderr, "\n");

    // With several sweeps in one invocation, prefix output files by sweep key
    // so they don't clobber each other.
    const bool many = keys.size() > 1;
    SweepRenderCtx ctx;
    ctx.csv = csv.empty() ? "" : (many ? key + "_" + csv : csv);
    render(spec, grid, std::cout, ctx);
    if (!json.empty()) {
      const std::string path = many ? key + "_" + json : json;
      if (write_json(spec, opts, grid, path))
        std::cout << "  [json written to " << path << "]\n\n";
      else
        std::cout << "  [FAILED to write " << path << "]\n\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wdc_bench: " << e.what() << "\n";
    return 2;
  }
}
