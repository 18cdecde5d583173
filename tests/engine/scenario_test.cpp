#include "engine/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace wdc {
namespace {

TEST(Scenario, DefaultsValidate) {
  Scenario s;
  EXPECT_NO_THROW(s.validate());
}

TEST(Scenario, FromConfigParsesKnobs) {
  Config c;
  c.set("protocol", "HYB");
  c.set("clients", "10");
  c.set("items", "200");
  c.set("update_rate", "2.5");
  c.set("ir_interval", "15");
  c.set("traffic_model", "pareto");
  c.set("fading", "fsmc");
  c.set("amc", "false");
  c.set("fixed_mcs", "3");
  c.set("query_model", "zipf");
  c.set("seed", "99");
  const Scenario s = Scenario::from_config(c);
  EXPECT_EQ(s.protocol, ProtocolKind::kHyb);
  EXPECT_EQ(s.num_clients, 10u);
  EXPECT_EQ(s.db.num_items, 200u);
  EXPECT_DOUBLE_EQ(s.db.update_rate, 2.5);
  EXPECT_DOUBLE_EQ(s.proto.ir_interval_s, 15.0);
  EXPECT_EQ(s.traffic.model, TrafficModel::kParetoBurst);
  EXPECT_EQ(s.fading.model, FadingModel::kFsmc);
  EXPECT_FALSE(s.mac.amc.adaptive);
  EXPECT_EQ(s.mac.amc.fixed_mcs, 3u);
  EXPECT_EQ(s.query.model, QueryModel::kZipf);
  EXPECT_EQ(s.seed, 99u);
}

TEST(Scenario, FromConfigMarksKeysUsed) {
  Config c;
  c.set("clients", "5");
  c.set("definitely_not_a_key", "1");
  (void)Scenario::from_config(c);
  const auto unused = c.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "definitely_not_a_key");
}

TEST(Scenario, OutOfRangeIntegerKeysFailNamingTheKey) {
  // A plain cast would wrap each of these into another value that runs:
  // clients=4294967297 as one client, cache_capacity=-1 as an unbounded
  // cache. Parsing throws before anything is built.
  const std::pair<const char*, const char*> cases[] = {
      {"clients", "4294967297"},      {"clients", "-1"},
      {"items", "-5"},                {"items", "4294967296"},
      {"hot_items", "-1"},            {"query_hot_items", "4294967296"},
      {"cache_capacity", "-1"},       {"fixed_mcs", "-1"},
      {"shard_cells", "-2"},          {"shard_threads", "4294967296"},
      {"shard_lag", "-1"},            {"item_bytes", "-8"},
  };
  for (const auto& [key, value] : cases) {
    Config c;
    c.set(key, value);
    try {
      (void)Scenario::from_config(c);
      ADD_FAILURE() << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest in-range values still parse.
  Config c;
  c.set("clients", "4294967295");
  c.set("shard_lag", "4294967295");
  const Scenario s = Scenario::from_config(c);
  EXPECT_EQ(s.num_clients, 4294967295u);
  EXPECT_EQ(s.shard_lag, 4294967295u);
}

TEST(Scenario, IntegerBeyondSixtyFourBitsFailsNamingTheKey) {
  Config c;
  c.set("cache_capacity", "99999999999999999999");
  try {
    (void)Scenario::from_config(c);
    ADD_FAILURE() << "an integer past the 64-bit range was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'cache_capacity'"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, ValidateRejectsNonsense) {
  {
    Scenario s;
    s.num_clients = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.warmup_s = s.sim_time_s;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.proto.window_mult = 0.5;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.proto.cache_capacity = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.protocol = ProtocolKind::kLair;
    s.proto.lair_window_s = 100.0;  // exceeds (w−1)·L
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
}

TEST(Scenario, LairWindowGuardOnlyForSlidingProtocols) {
  Scenario s;
  s.protocol = ProtocolKind::kTs;
  s.proto.lair_window_s = 100.0;  // irrelevant for TS
  EXPECT_NO_THROW(s.validate());
}

TEST(ProtocolNames, RoundTrip) {
  for (const auto k : kAllProtocols)
    EXPECT_EQ(protocol_from_string(to_string(k)), k);
  EXPECT_THROW(protocol_from_string("XYZ"), std::invalid_argument);
}

TEST(SnrAssignmentNames, RoundTrip) {
  EXPECT_EQ(snr_assignment_from_string("uniform"), SnrAssignment::kUniform);
  EXPECT_EQ(snr_assignment_from_string("pathloss"), SnrAssignment::kPathLoss);
  EXPECT_THROW(snr_assignment_from_string("x"), std::invalid_argument);
}

}  // namespace
}  // namespace wdc
