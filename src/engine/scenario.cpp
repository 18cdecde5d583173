#include "engine/scenario.hpp"

#include <stdexcept>

#include "faults/fault_injector.hpp"

namespace wdc {

SnrAssignment snr_assignment_from_string(const std::string& name) {
  if (name == "uniform") return SnrAssignment::kUniform;
  if (name == "pathloss") return SnrAssignment::kPathLoss;
  throw std::invalid_argument("unknown snr assignment: " + name);
}

std::string to_string(SnrAssignment a) {
  switch (a) {
    case SnrAssignment::kUniform: return "uniform";
    case SnrAssignment::kPathLoss: return "pathloss";
  }
  return "?";
}

RadioTable radio_table_from_string(const std::string& name) {
  if (name == "edge") return RadioTable::kEdge;
  if (name == "wifi" || name == "80211b") return RadioTable::kWifi11b;
  throw std::invalid_argument("unknown radio table: " + name);
}

std::string to_string(RadioTable r) {
  switch (r) {
    case RadioTable::kEdge: return "edge";
    case RadioTable::kWifi11b: return "wifi";
  }
  return "?";
}

McsTable Scenario::make_mcs_table() const {
  switch (radio) {
    case RadioTable::kEdge: return McsTable::edge(edge_timeslots);
    case RadioTable::kWifi11b: return McsTable::wifi11b();
  }
  throw std::logic_error("make_mcs_table: unreachable");
}

Scenario Scenario::from_config(const Config& c) {
  return from_config(c, Scenario{});
}

Scenario Scenario::from_config(const Config& c, const Scenario& base) {
  Scenario s = base;
  s.seed = static_cast<std::uint64_t>(c.get_int("seed", static_cast<std::int64_t>(s.seed)));
  s.sim_time_s = c.get_double("sim_time", s.sim_time_s);
  s.warmup_s = c.get_double("warmup", s.warmup_s);
  s.protocol = protocol_from_string(c.get_string("protocol", to_string(s.protocol)));
  s.num_clients = static_cast<std::uint32_t>(c.get_int("clients", s.num_clients));

  s.db.num_items = static_cast<std::uint32_t>(c.get_int("items", s.db.num_items));
  s.db.item_bits =
      static_cast<Bits>(c.get_int(
          "item_bytes", static_cast<std::int64_t>(s.db.item_bits / 8))) * 8;
  s.db.item_size_sigma = c.get_double("item_size_sigma", s.db.item_size_sigma);
  s.db.update_rate = c.get_double("update_rate", s.db.update_rate);
  s.db.hot_items = static_cast<std::uint32_t>(c.get_int("hot_items", s.db.hot_items));
  s.db.hot_update_frac = c.get_double("hot_update_frac", s.db.hot_update_frac);

  s.query.model =
      query_model_from_string(c.get_string("query_model", to_string(s.query.model)));
  s.query.rate = c.get_double("query_rate", s.query.rate);
  s.query.hot_items =
      static_cast<std::uint32_t>(c.get_int("query_hot_items", s.query.hot_items));
  s.query.hot_frac = c.get_double("query_hot_frac", s.query.hot_frac);
  s.query.zipf_theta = c.get_double("zipf_theta", s.query.zipf_theta);

  s.sleep.sleep_ratio = c.get_double("sleep_ratio", s.sleep.sleep_ratio);
  s.sleep.mean_sleep_s = c.get_double("mean_sleep", s.sleep.mean_sleep_s);

  s.traffic.model =
      traffic_model_from_string(c.get_string("traffic_model", to_string(s.traffic.model)));
  s.traffic.offered_bps = c.get_double("traffic_bps", s.traffic.offered_bps);
  s.traffic.frame_bits =
      static_cast<Bits>(c.get_int(
          "traffic_frame_bytes",
          static_cast<std::int64_t>(s.traffic.frame_bits / 8))) * 8;
  s.traffic.pareto_alpha = c.get_double("traffic_pareto_alpha", s.traffic.pareto_alpha);
  s.traffic.burst_mean_frames =
      c.get_double("traffic_burst_frames", s.traffic.burst_mean_frames);

  s.proto.ir_interval_s = c.get_double("ir_interval", s.proto.ir_interval_s);
  s.proto.window_mult = c.get_double("window_mult", s.proto.window_mult);
  s.proto.uir_m = static_cast<unsigned>(c.get_int("uir_m", s.proto.uir_m));
  s.proto.cache_capacity =
      static_cast<std::size_t>(c.get_int("cache_capacity", s.proto.cache_capacity));
  s.proto.request_timeout_s = c.get_double("request_timeout", s.proto.request_timeout_s);
  s.proto.sig_fp_prob = c.get_double("sig_fp_prob", s.proto.sig_fp_prob);
  s.proto.sig_window_mult = c.get_double("sig_window_mult", s.proto.sig_window_mult);
  s.proto.lair_window_s = c.get_double("lair_window", s.proto.lair_window_s);
  s.proto.lair_step_s = c.get_double("lair_step", s.proto.lair_step_s);
  s.proto.lair_min_snr_db = c.get_double("lair_min_snr", s.proto.lair_min_snr_db);
  s.proto.pig_horizon_s = c.get_double("pig_horizon", s.proto.pig_horizon_s);
  s.proto.pig_max_ids =
      static_cast<unsigned>(c.get_int("pig_max_ids", s.proto.pig_max_ids));
  s.proto.hyb_target_gap_s = c.get_double("hyb_target_gap", s.proto.hyb_target_gap_s);
  s.proto.hyb_max_m = static_cast<unsigned>(c.get_int("hyb_max_m", s.proto.hyb_max_m));
  s.proto.bs_levels = static_cast<unsigned>(c.get_int("bs_levels", s.proto.bs_levels));
  s.proto.cbl_lease_s = c.get_double("cbl_lease", s.proto.cbl_lease_s);
  s.proto.selective_tuning =
      c.get_bool("selective_tuning", s.proto.selective_tuning);
  s.proto.tune_guard_s = c.get_double("tune_guard", s.proto.tune_guard_s);
  s.proto.tune_linger_s = c.get_double("tune_linger", s.proto.tune_linger_s);

  s.fading.model =
      fading_model_from_string(c.get_string("fading", to_string(s.fading.model)));
  s.fading.doppler_hz = c.get_double("doppler", s.fading.doppler_hz);
  s.fading.shadow_sigma_db = c.get_double("shadow_sigma", s.fading.shadow_sigma_db);

  s.mac.amc.adaptive = c.get_bool("amc", s.mac.amc.adaptive);
  s.mac.amc.fixed_mcs =
      static_cast<std::size_t>(c.get_int("fixed_mcs", s.mac.amc.fixed_mcs));
  s.mac.amc.target_bler = c.get_double("target_bler", s.mac.amc.target_bler);
  s.mac.amc.csi_delay_s = c.get_double("csi_delay", s.mac.amc.csi_delay_s);
  s.mac.broadcast_percentile =
      c.get_double("broadcast_percentile", s.mac.broadcast_percentile);
  s.mac.max_retx = static_cast<unsigned>(c.get_int("max_retx", s.mac.max_retx));

  s.uplink.base_delay_s = c.get_double("uplink_delay", s.uplink.base_delay_s);

  s.trace.enabled = c.get_bool("trace", s.trace.enabled);
  s.trace.ring_capacity = static_cast<std::uint32_t>(
      c.get_int("trace_ring", s.trace.ring_capacity));
  s.trace.file = c.get_string("trace_file", s.trace.file);

  s.faults.enabled = c.get_bool("faults", s.faults.enabled);
  s.faults.loss_mode = fault_loss_mode_from_string(
      c.get_string("fault_loss_mode", to_string(s.faults.loss_mode)));
  s.faults.ir_loss = c.get_double("fault_ir_loss", s.faults.ir_loss);
  s.faults.bcast_loss = c.get_double("fault_bcast_loss", s.faults.bcast_loss);
  s.faults.burst_mean_good_s =
      c.get_double("fault_burst_good", s.faults.burst_mean_good_s);
  s.faults.burst_mean_bad_s =
      c.get_double("fault_burst_bad", s.faults.burst_mean_bad_s);
  s.faults.uplink_drop = c.get_double("fault_uplink_drop", s.faults.uplink_drop);
  s.faults.backoff_mult = c.get_double("fault_backoff_mult", s.faults.backoff_mult);
  s.faults.backoff_cap_s = c.get_double("fault_backoff_cap", s.faults.backoff_cap_s);
  s.faults.churn_rate = c.get_double("fault_churn_rate", s.faults.churn_rate);
  s.faults.churn_mean_down_s =
      c.get_double("fault_churn_down", s.faults.churn_mean_down_s);
  s.faults.rejoin = rejoin_policy_from_string(
      c.get_string("fault_rejoin", to_string(s.faults.rejoin)));
  const std::string sched_path = c.get_string("fault_schedule", "");
  if (!sched_path.empty())
    s.faults.schedule = FaultSchedule::load_file(sched_path);

  s.snr_assignment = snr_assignment_from_string(
      c.get_string("snr_assignment", to_string(s.snr_assignment)));
  s.mean_snr_db = c.get_double("mean_snr", s.mean_snr_db);
  s.snr_spread_db = c.get_double("snr_spread", s.snr_spread_db);
  s.tx_power_dbm = c.get_double("tx_power", s.tx_power_dbm);
  s.noise_dbm = c.get_double("noise", s.noise_dbm);
  s.radio = radio_table_from_string(c.get_string("radio", to_string(s.radio)));
  s.edge_timeslots = static_cast<unsigned>(c.get_int("timeslots", s.edge_timeslots));

  s.shard_cells =
      static_cast<std::uint32_t>(c.get_int("shard_cells", s.shard_cells));
  s.shard_threads =
      static_cast<std::uint32_t>(c.get_int("shard_threads", s.shard_threads));
  s.shard_lag = static_cast<std::uint32_t>(c.get_int("shard_lag", s.shard_lag));

  s.validate();
  return s;
}

void Scenario::validate() const {
  if (num_clients == 0) throw std::invalid_argument("Scenario: clients > 0");
  if (sim_time_s <= warmup_s)
    throw std::invalid_argument("Scenario: sim_time must exceed warmup");
  if (proto.ir_interval_s <= 0.0)
    throw std::invalid_argument("Scenario: ir_interval > 0");
  if (proto.window_mult < 1.0)
    throw std::invalid_argument("Scenario: window_mult >= 1 (window must cover L)");
  if (proto.uir_m == 0) throw std::invalid_argument("Scenario: uir_m >= 1");
  if (proto.lair_window_s >= (proto.window_mult - 1.0) * proto.ir_interval_s &&
      (protocol == ProtocolKind::kLair || protocol == ProtocolKind::kHyb))
    throw std::invalid_argument(
        "Scenario: LAIR deferral window must stay below (w-1)*L or sliding could "
        "break window coverage");
  if (proto.cache_capacity == 0)
    throw std::invalid_argument("Scenario: cache_capacity > 0");
  if (db.num_items == 0) throw std::invalid_argument("Scenario: items > 0");
  if (edge_timeslots == 0) throw std::invalid_argument("Scenario: timeslots >= 1");
  if (shard_cells == 0) throw std::invalid_argument("Scenario: shard_cells >= 1");
  if (shard_cells > num_clients)
    throw std::invalid_argument(
        "Scenario: shard_cells <= clients (every cell needs a client)");
  if (shard_lag == 0)
    throw std::invalid_argument("Scenario: shard_lag >= 1 (0 would serialize "
                                "cells inside one epoch)");
  if (trace.enabled && trace.ring_capacity == 0)
    throw std::invalid_argument("Scenario: trace_ring > 0 when tracing");
  faults.validate();
  if (faults.enabled && WDC_FAULTS_ENABLED == 0)
    throw std::invalid_argument(
        "Scenario: faults requested but the fault layer was compiled out "
        "(-DWDC_FAULTS=OFF)");
}

}  // namespace wdc
