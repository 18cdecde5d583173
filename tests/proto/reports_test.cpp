#include "proto/reports.hpp"

#include <gtest/gtest.h>

#include "proto/protocol.hpp"

namespace wdc {
namespace {

ProtoConfig sizes() {
  ProtoConfig cfg;
  cfg.report_header_bits = 128;
  cfg.id_bits = 32;
  cfg.ts_bits = 32;
  cfg.sig_bits_per_item = 8;
  return cfg;
}

TEST(ReportSizes, FullReportScalesWithEntries) {
  FullReport r;
  EXPECT_EQ(r.wire_bits(sizes()), 128u);
  r.updates = {{1, 1.0}, {2, 2.0}, {3, 3.0}};
  EXPECT_EQ(r.wire_bits(sizes()), 128u + 3u * 64u);
}

TEST(ReportSizes, MiniReportUsesBareIds) {
  MiniReport r;
  r.updated = {1, 2, 3, 4};
  EXPECT_EQ(r.wire_bits(sizes()), 128u + 4u * 32u);
}

TEST(ReportSizes, MiniSmallerThanFullForSameCount) {
  FullReport f;
  MiniReport m;
  for (ItemId i = 0; i < 10; ++i) {
    f.updates.emplace_back(i, 1.0);
    m.updated.push_back(i);
  }
  EXPECT_LT(m.wire_bits(sizes()), f.wire_bits(sizes()));
}

TEST(ReportSizes, SigReportIsFixedSize) {
  SigReport r;
  const Bits empty = r.wire_bits(sizes(), 1000);
  r.updated = std::vector<ItemId>(500, 1);
  EXPECT_EQ(r.wire_bits(sizes(), 1000), empty);  // truth set rides free
  EXPECT_EQ(empty, 128u + 1000u * 8u);
}

TEST(ReportSizes, DigestScalesWithIds) {
  PiggyDigest d;
  EXPECT_EQ(d.wire_bits(sizes()), 48u);
  d.updated = {1, 2};
  EXPECT_EQ(d.wire_bits(sizes()), 48u + 64u);
}

TEST(ReportSizes, DigestMuchSmallerThanSigReport) {
  PiggyDigest d;
  d.updated = std::vector<ItemId>(32, 1);
  SigReport s;
  EXPECT_LT(d.wire_bits(sizes()), s.wire_bits(sizes(), 1000) / 4);
}

}  // namespace
}  // namespace wdc
