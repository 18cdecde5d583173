/// The MAC's per-client listening bit is pushed by the client whenever its
/// radio state may change, not asked for at fan-out time. Property: at any
/// sampled instant the bit equals the client's own radio_on(), for every
/// protocol under sleep, churn and background traffic, with selective tuning
/// off and on. A missed push would silently change who hears a frame, so the
/// check samples both ends of every instant (before the channel band, after
/// the stats band).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/simulation.hpp"
#include "faults/fault_injector.hpp"

namespace wdc {
namespace {

struct ListeningCase {
  ProtocolKind protocol;
  bool tuning;
};

void PrintTo(const ListeningCase& c, std::ostream* os) {
  *os << to_string(c.protocol) << (c.tuning ? " tuned" : " untuned");
}

std::string case_name(const ::testing::TestParamInfo<ListeningCase>& info) {
  return std::string(to_string(info.param.protocol)) +
         (info.param.tuning ? "_tuned" : "_untuned");
}

/// Sample counts by state, so a vacuous run (nobody ever deaf) fails.
struct Tally {
  std::uint64_t listening = 0;
  std::uint64_t deaf = 0;
  std::uint64_t dozing = 0;     ///< reachable but radio off (selective tuning)
  std::uint64_t churned = 0;    ///< disconnected by the fault layer
  std::uint64_t mismatches = 0;
};

void sample(Simulation& sim, Tally& tally) {
  for (std::size_t i = 0; i < sim.num_clients(); ++i) {
    const auto c = static_cast<ClientId>(i);
    const ClientProtocol& client = sim.client(i);
    const bool bit = sim.mac().listening(c);
    if (bit != client.radio_on()) {
      ++tally.mismatches;
      ADD_FAILURE() << "client " << i << " at t=" << sim.simulator().now()
                    << ": MAC bit " << bit << ", radio_on "
                    << client.radio_on();
    }
    if (!sim.faults().connected(c)) {
      ++tally.churned;
      EXPECT_FALSE(bit) << "churned-away client " << i << " is listening";
    }
    if (bit) {
      ++tally.listening;
    } else {
      ++tally.deaf;
      if (client.reachable()) ++tally.dozing;
    }
  }
}

class PushedListening : public ::testing::TestWithParam<ListeningCase> {};

TEST_P(PushedListening, MacBitMatchesRadioOnAtSampledInstants) {
  const ListeningCase& param = GetParam();
  Scenario s;
  s.protocol = param.protocol;
  s.seed = 4242;
  s.num_clients = 12;
  s.db.num_items = 200;
  s.db.update_rate = 1.0;
  s.sim_time_s = 400.0;
  s.warmup_s = 50.0;
  s.sleep.sleep_ratio = 0.3;
  s.sleep.mean_sleep_s = 20.0;
  s.traffic.offered_bps = 15e3;
  s.proto.selective_tuning = param.tuning;
  s.faults.enabled = true;
  s.faults.churn_rate = 1.0 / 60.0;
  s.faults.churn_mean_down_s = 10.0;

  Simulation sim(s);
  Tally tally;
  for (double t = 0.05; t < s.sim_time_s; t += 0.37) {
    for (const EventPriority prio :
         {EventPriority::kChannel, EventPriority::kStats})
      sim.simulator().schedule_at(t, [&sim, &tally] { sample(sim, tally); },
                                  prio);
  }
  sim.run();

  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GT(tally.listening, 0u);
  EXPECT_GT(tally.deaf, 0u);
  // Only report-driven schemes doze: NC/PER/CBL never reach a consistency
  // point that closes a tuning window.
  const bool report_free = param.protocol == ProtocolKind::kNc ||
                           param.protocol == ProtocolKind::kPer ||
                           param.protocol == ProtocolKind::kCbl;
  if (!param.tuning) {
    EXPECT_EQ(tally.dozing, 0u);
  } else if (!report_free) {
    EXPECT_GT(tally.dozing, 0u);
  }
#if WDC_FAULTS_ENABLED
  EXPECT_GT(tally.churned, 0u);
#endif
}

std::vector<ListeningCase> all_cases() {
  std::vector<ListeningCase> cases;
  for (const ProtocolKind p : kAllProtocolsAndBaselines)
    for (const bool tuning : {false, true}) cases.push_back({p, tuning});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PushedListening,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace wdc
