#include <gtest/gtest.h>

#include <cmath>

#include "analysis/fading_theory.hpp"
#include "analysis/ir_theory.hpp"
#include "channel/jakes_bank.hpp"
#include "engine/simulation.hpp"

/// Cross-validation: the simulator must reproduce the closed-form results where
/// they exist. These are the strongest correctness checks in the suite — a
/// substrate bug (event ordering, fading statistics, report content) shows up
/// here even if every unit test passes.

namespace wdc {
namespace {

TEST(SimVsTheory, TsHitLatencyMatchesHalfInterval) {
  Scenario s;
  s.protocol = ProtocolKind::kTs;
  s.num_clients = 20;
  s.db.num_items = 400;
  s.db.update_rate = 0.2;
  s.sim_time_s = 2000.0;
  s.warmup_s = 300.0;
  s.mean_snr_db = 45.0;  // near-lossless: isolate the deferral wait
  s.snr_spread_db = 2.0;
  for (const double L : {10.0, 30.0}) {
    s.proto.ir_interval_s = L;
    const Metrics m = run_scenario(s);
    EXPECT_LT(m.report_loss_rate, 0.03);  // residual deep-fade losses only
    const double theory = analysis::expected_consistency_wait(L);
    EXPECT_NEAR(m.mean_hit_latency_s, theory, 0.1 * theory + 0.5) << "L=" << L;
  }
}

TEST(SimVsTheory, UirHitLatencyMatchesHalfSlice) {
  Scenario s;
  s.protocol = ProtocolKind::kUir;
  s.num_clients = 20;
  s.db.num_items = 400;
  s.db.update_rate = 0.2;
  s.sim_time_s = 2000.0;
  s.warmup_s = 300.0;
  s.mean_snr_db = 45.0;
  s.snr_spread_db = 2.0;
  s.proto.ir_interval_s = 20.0;
  for (const unsigned m_points : {2u, 5u}) {
    s.proto.uir_m = m_points;
    const Metrics m = run_scenario(s);
    const double theory =
        analysis::expected_consistency_wait(s.proto.ir_interval_s, m_points);
    EXPECT_NEAR(m.mean_hit_latency_s, theory, 0.15 * theory + 0.5)
        << "m=" << m_points;
  }
}

TEST(SimVsTheory, LossyChannelMatchesLossCorrectedWait) {
  // At the AMC's designed ~10% residual loss the clean L/2 formula under-
  // predicts; the geometric loss correction must close the gap.
  Scenario s;
  s.protocol = ProtocolKind::kTs;
  s.num_clients = 20;
  s.db.num_items = 400;
  s.db.update_rate = 0.2;
  s.sim_time_s = 2500.0;
  s.warmup_s = 300.0;
  s.mean_snr_db = 30.0;
  s.snr_spread_db = 4.0;
  s.proto.ir_interval_s = 30.0;
  const Metrics m = run_scenario(s);
  ASSERT_GT(m.report_loss_rate, 0.02);
  const double clean = analysis::expected_consistency_wait(30.0);
  const double corrected =
      analysis::expected_wait_with_loss(30.0, 1, m.report_loss_rate);
  // The corrected prediction must be strictly better than the clean one…
  EXPECT_LT(std::fabs(m.mean_hit_latency_s - corrected),
            std::fabs(m.mean_hit_latency_s - clean));
  // …and land within 15%.
  EXPECT_NEAR(m.mean_hit_latency_s, corrected, 0.15 * corrected);
}

TEST(SimVsTheory, TsReportBitsMatchExpectation) {
  Scenario s;
  s.protocol = ProtocolKind::kTs;
  s.num_clients = 10;
  s.db.num_items = 500;
  s.db.update_rate = 1.0;
  s.sim_time_s = 3000.0;
  s.warmup_s = 100.0;
  const Metrics m = run_scenario(s);
  const double window = s.proto.window_mult * s.proto.ir_interval_s;
  const double per_report_theory = analysis::expected_ts_report_bits(
      window, s.db.update_rate, s.db.num_items, s.db.hot_items,
      s.db.hot_update_frac, s.proto.report_header_bits,
      s.proto.id_bits + s.proto.ts_bits);
  const double per_report_sim =
      static_cast<double>(m.report_bits) / static_cast<double>(m.reports_sent);
  EXPECT_NEAR(per_report_sim, per_report_theory, 0.1 * per_report_theory);
}

TEST(SimVsTheory, JakesOutageMatchesRayleigh) {
  Rng rng(5);
  JakesBank fader(8.0, 32);
  fader.add(rng);
  const double mean_db = 0.0;  // unit-mean fader ⇒ SNR == gain
  for (const double thr_db : {-10.0, -3.0, 0.0}) {
    int below = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
      if (gain_db(fader.power_gain(0, i * 0.083)) < thr_db) ++below;
    const double theory = analysis::rayleigh_outage_prob(thr_db, mean_db);
    EXPECT_NEAR(below / static_cast<double>(n), theory, 0.15 * theory + 0.01)
        << "thr=" << thr_db;
  }
}

TEST(SimVsTheory, JakesFadeDurationMatchesAfd) {
  // Measure mean fade durations below −5 dB on a fine trace and compare with
  // the closed-form AFD.
  Rng rng(6);
  const double fd = 4.0;
  JakesBank fader(fd, 32);
  fader.add(rng);
  const double thr_db = -5.0;
  const double dt = 0.001;
  bool below = false;
  double run = 0.0;
  double total = 0.0;
  int fades = 0;
  for (int i = 0; i < 2000000; ++i) {
    const bool b = gain_db(fader.power_gain(0, i * dt)) < thr_db;
    if (b) {
      run += dt;
    } else if (below) {
      total += run;
      run = 0.0;
      ++fades;
    }
    below = b;
  }
  ASSERT_GT(fades, 200);
  const double afd_sim = total / fades;
  const double afd_theory = analysis::rayleigh_afd(thr_db, 0.0, fd);
  EXPECT_NEAR(afd_sim, afd_theory, 0.25 * afd_theory);
}

TEST(SimVsTheory, HitRatioStaysBelowUpperBound) {
  Scenario s;
  s.protocol = ProtocolKind::kTs;
  s.num_clients = 15;
  s.db.num_items = 500;
  s.sim_time_s = 2500.0;
  s.warmup_s = 400.0;
  for (const double u : {0.2, 1.0, 5.0}) {
    s.db.update_rate = u;
    const Metrics m = run_scenario(s);
    const double bound = analysis::hit_ratio_upper_bound(
        s.query.rate, s.query.hot_frac, s.query.hot_items, u,
        s.db.hot_update_frac, s.db.hot_items, s.db.num_items);
    EXPECT_LE(m.hit_ratio, bound + 0.02) << "update_rate=" << u;
  }
}

TEST(SimVsTheory, SleepDropsScaleWithWindow) {
  // Doubling the TS window cuts the per-episode drop probability by the
  // predicted exponential factor (order-of-magnitude check).
  Scenario s;
  s.protocol = ProtocolKind::kTs;
  s.num_clients = 25;
  s.db.num_items = 300;
  s.sim_time_s = 3000.0;
  s.warmup_s = 200.0;
  s.sleep.sleep_ratio = 0.3;
  s.sleep.mean_sleep_s = 60.0;
  s.proto.window_mult = 2.0;  // window 40
  const Metrics narrow = run_scenario(s);
  s.proto.window_mult = 6.0;  // window 120
  const Metrics wide = run_scenario(s);
  const double predicted_ratio = analysis::sleep_drop_prob(120.0, 60.0) /
                                 analysis::sleep_drop_prob(40.0, 60.0);
  ASSERT_GT(narrow.cache_drops, 20u);
  const double observed_ratio = static_cast<double>(wide.cache_drops) /
                                static_cast<double>(narrow.cache_drops);
  // Both ≈ e^{-2} ≈ 0.135; allow a wide band (residual-life effects, losses).
  EXPECT_LT(observed_ratio, 3.0 * predicted_ratio + 0.05);
  EXPECT_LT(wide.cache_drops, narrow.cache_drops);
}

}  // namespace
}  // namespace wdc
