#include "sweeps/sweeps.hpp"

#include "util/config.hpp"

namespace wdc::sweeps {

Scenario default_scenario() {
  Scenario s;
  s.num_clients = 30;
  s.db.num_items = 600;
  s.sim_time_s = 2000.0;
  s.warmup_s = 300.0;
  s.seed = 20040426;  // IPDPS 2004
  return s;
}

SweepOptions options_from_config(const Config& cfg) {
  SweepOptions opts;
  opts.reps = cfg.get_count("reps", 3u);
  opts.threads = cfg.get_count("threads", 0u);
  opts.trace_every = cfg.get_count("trace_every", 0u);
  opts.trace_dir = cfg.get_string("trace_dir", opts.trace_dir);
  opts.base = Scenario::from_config(cfg, default_scenario());
  return opts;
}

const std::vector<SweepSpec>& all() {
  static const std::vector<SweepSpec> specs = {
      fig1(), fig2(), fig3(), fig4(),  fig5(), fig6(), fig7(),
      fig8(), fig9(), fig10(), figf(), tab1(), tab2(), tab3()};
  return specs;
}

const SweepSpec* find(const std::string& key) {
  for (const auto& spec : all())
    if (spec.key == key) return &spec;
  return nullptr;
}

}  // namespace wdc::sweeps
