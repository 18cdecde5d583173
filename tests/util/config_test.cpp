#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "engine/scenario.hpp"

namespace wdc {
namespace {

TEST(Config, SetAndGet) {
  Config c;
  c.set("a", "1.5");
  c.set("b", "hello");
  EXPECT_DOUBLE_EQ(c.get_double("a", 0.0), 1.5);
  EXPECT_EQ(c.get_string("b", ""), "hello");
}

TEST(Config, DefaultsWhenAbsent) {
  Config c;
  EXPECT_DOUBLE_EQ(c.get_double("missing", 7.0), 7.0);
  EXPECT_EQ(c.get_int("missing", 42), 42);
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_EQ(c.get_string("missing", "x"), "x");
}

TEST(Config, IntParsing) {
  Config c;
  c.set("n", "123");
  c.set("neg", "-7");
  EXPECT_EQ(c.get_int("n", 0), 123);
  EXPECT_EQ(c.get_int("neg", 0), -7);
  c.set("bad", "12x");
  EXPECT_THROW(c.get_int("bad", 0), std::runtime_error);
}

TEST(Config, DoubleParsing) {
  Config c;
  c.set("x", "2.5e-3");
  EXPECT_DOUBLE_EQ(c.get_double("x", 0.0), 2.5e-3);
  c.set("bad", "abc");
  EXPECT_THROW(c.get_double("bad", 0.0), std::runtime_error);
}

TEST(Config, BoolParsing) {
  Config c;
  for (const char* t : {"true", "1", "yes", "on"}) {
    c.set("b", t);
    EXPECT_TRUE(c.get_bool("b", false)) << t;
  }
  for (const char* f : {"false", "0", "no", "off"}) {
    c.set("b", f);
    EXPECT_FALSE(c.get_bool("b", true)) << f;
  }
  c.set("b", "maybe");
  EXPECT_THROW(c.get_bool("b", false), std::runtime_error);
}

TEST(Config, LoadArgsSplitsKeyValue) {
  Config c;
  const char* argv[] = {"prog", "alpha=3", "positional", "beta = 4"};
  const auto pos = c.load_args(4, argv);
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], "positional");
  EXPECT_EQ(c.get_int("alpha", 0), 3);
  EXPECT_EQ(c.get_int("beta", 0), 4);
}

TEST(Config, LoadFileParsesCommentsAndBlanks) {
  const std::string path = testing::TempDir() + "/wdc_config_test.cfg";
  {
    std::ofstream out(path);
    out << "# a comment\n"
        << "\n"
        << "key1 = value1\n"
        << "key2=7.5   # trailing comment\n";
  }
  Config c;
  c.load_file(path);
  EXPECT_EQ(c.get_string("key1", ""), "value1");
  EXPECT_DOUBLE_EQ(c.get_double("key2", 0.0), 7.5);
  std::remove(path.c_str());
}

TEST(Config, LoadFileRejectsMalformed) {
  const std::string path = testing::TempDir() + "/wdc_config_bad.cfg";
  {
    std::ofstream out(path);
    out << "not a key value line\n";
  }
  Config c;
  EXPECT_THROW(c.load_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Config, LoadFileMissingThrows) {
  Config c;
  EXPECT_THROW(c.load_file("/nonexistent/file.cfg"), std::runtime_error);
}

TEST(Config, UnusedKeysTracksReads) {
  Config c;
  c.set("used", "1");
  c.set("never", "2");
  (void)c.get_int("used", 0);
  const auto unused = c.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "never");
}

TEST(Config, RequireAllUsedNamesEveryUnreadKey) {
  Config c;
  c.set("used", "1");
  c.set("typo_a", "2");
  c.set("typo_b", "3");
  (void)c.get_int("used", 0);
  try {
    c.require_all_used();
    FAIL() << "unread keys must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "Config: unknown key(s) 'typo_a', 'typo_b'");
  }
  (void)c.get_int("typo_a", 0);
  (void)c.get_int("typo_b", 0);
  EXPECT_NO_THROW(c.require_all_used());
}

TEST(Config, RequireAllUsedSuggestsNearestKnownKey) {
  // Known keys are the ones the scenario parser asks for, set or not.
  Config c;
  c.set("shadow_sigm", "6");
  c.set("zzz", "1");
  (void)Scenario::from_config(c);
  try {
    c.require_all_used();
    FAIL() << "unread keys must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "Config: unknown key(s) 'shadow_sigm' (did you mean "
                 "'shadow_sigma'?), 'zzz'");
  }
}

TEST(Config, LaterSetWins) {
  Config c;
  c.set("k", "1");
  c.set("k", "2");
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, ItemsSorted) {
  Config c;
  c.set("b", "2");
  c.set("a", "1");
  const auto items = c.items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, "a");
  EXPECT_EQ(items[1].first, "b");
}

}  // namespace
}  // namespace wdc
