#include <gtest/gtest.h>

#include "phy/mcs.hpp"

/// Property sweeps over every MCS table the system ships: the invariants link
/// adaptation relies on must hold for any table, not just the EDGE default.

namespace wdc {
namespace {

struct TableCase {
  const char* name;
  McsTable (*make)();
};

// Print a case as its table name: gtest's default byte dump of the two
// pointers would put load addresses into the discovered test names.
void PrintTo(const TableCase& c, std::ostream* os) { *os << c.name; }

McsTable make_edge() { return McsTable::edge(4); }
McsTable make_edge1() { return McsTable::edge(1); }
McsTable make_wifi() { return McsTable::wifi11b(); }
McsTable make_simple() { return McsTable::simple3(); }

class McsTableProperties : public ::testing::TestWithParam<TableCase> {};

TEST_P(McsTableProperties, RatesStrictlyIncrease) {
  const McsTable t = GetParam().make();
  for (std::size_t i = 1; i < t.size(); ++i)
    EXPECT_GT(t[i].rate_bps, t[i - 1].rate_bps);
}

TEST_P(McsTableProperties, ThresholdsStrictlyIncrease) {
  const McsTable t = GetParam().make();
  for (std::size_t i = 1; i < t.size(); ++i)
    EXPECT_GT(t[i].gamma50_db, t[i - 1].gamma50_db);
}

TEST_P(McsTableProperties, BlerMonotoneInSnrForEveryScheme) {
  const McsTable t = GetParam().make();
  for (std::size_t i = 0; i < t.size(); ++i) {
    double prev = 1.1;
    for (double snr = -20.0; snr <= 40.0; snr += 0.5) {
      const double b = t[i].bler(snr);
      // Strictly decreasing except where the logistic saturates at 1.0 in
      // double precision (deep below gamma50).
      ASSERT_LE(b, prev) << t[i].name << " at " << snr;
      if (prev < 1.0 - 1e-9) {
        ASSERT_LT(b, prev) << t[i].name << " at " << snr;
      }
      ASSERT_GE(b, 0.0);
      ASSERT_LE(b, 1.0);
      prev = b;
    }
  }
}

TEST_P(McsTableProperties, BlerMonotoneAcrossSchemesAtFixedSnr) {
  // Higher-rate schemes are never MORE robust at any SNR.
  const McsTable t = GetParam().make();
  for (double snr = -10.0; snr <= 40.0; snr += 1.0)
    for (std::size_t i = 1; i < t.size(); ++i)
      ASSERT_GE(t[i].bler(snr), t[i - 1].bler(snr)) << "snr=" << snr;
}

TEST_P(McsTableProperties, SelectionMonotoneInSnr) {
  const McsTable t = GetParam().make();
  std::size_t prev = 0;
  for (double snr = -20.0; snr <= 50.0; snr += 0.25) {
    const std::size_t i = t.best_for(snr, 0.1);
    ASSERT_GE(i, prev);
    prev = i;
  }
  EXPECT_EQ(prev, t.size() - 1);
}

TEST_P(McsTableProperties, SelectionMonotoneInTargetStrictness) {
  // A stricter BLER target never selects a faster scheme.
  const McsTable t = GetParam().make();
  for (double snr = -5.0; snr <= 40.0; snr += 2.5)
    ASSERT_LE(t.best_for(snr, 0.01), t.best_for(snr, 0.2)) << "snr=" << snr;
}

TEST_P(McsTableProperties, MessageSelectionNeverFasterThanBlockSelection) {
  const McsTable t = GetParam().make();
  for (double snr = 0.0; snr <= 40.0; snr += 2.0)
    ASSERT_LE(t.best_for_message(snr, 0.1, 50000), t.best_for(snr, 0.1));
}

TEST_P(McsTableProperties, AirtimeMonotoneInBitsAndScheme) {
  const McsTable t = GetParam().make();
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_LT(t.airtime_s(100, i), t.airtime_s(10000, i));
    if (i > 0) {
      ASSERT_LT(t.airtime_s(10000, i), t.airtime_s(10000, i - 1));
    }
  }
}

TEST_P(McsTableProperties, DecodeProbMonotoneInSnr) {
  const McsTable t = GetParam().make();
  for (std::size_t i = 0; i < t.size(); ++i) {
    double prev = -1.0;
    for (double snr = -10.0; snr <= 40.0; snr += 1.0) {
      const double p = t.decode_prob(4000, i, snr);
      ASSERT_GE(p, prev);
      prev = p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTables, McsTableProperties,
                         ::testing::Values(TableCase{"edge4", &make_edge},
                                           TableCase{"edge1", &make_edge1},
                                           TableCase{"wifi11b", &make_wifi},
                                           TableCase{"simple3", &make_simple}),
                         [](const ::testing::TestParamInfo<TableCase>& tpi) {
                           return std::string(tpi.param.name);
                         });

}  // namespace
}  // namespace wdc
