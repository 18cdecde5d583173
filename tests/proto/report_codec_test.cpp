/// Round-trip and fuzz-style corruption tests for the report wire codec.
///
/// The corruption half is the point: every truncation prefix, every single-bit
/// flip, and a randomized mutation storm must either decode cleanly or fail
/// with a reason — never crash, never over-allocate, never read out of bounds
/// (the sanitizer CI job runs this file under ASan/UBSan).

#include "proto/report_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <type_traits>
#include <variant>

#include "util/rng.hpp"

namespace wdc {
namespace {

FullReport sample_full() {
  FullReport r;
  r.stamp = 120.25;
  r.window_start = 60.25;
  r.updates = {{3, 61.5}, {17, 90.0}, {599, 120.0}};
  return r;
}

MiniReport sample_mini() {
  MiniReport r;
  r.stamp = 130.0;
  r.anchor = 120.25;
  r.updated = {4, 8, 15, 16, 23, 42};
  return r;
}

SigReport sample_sig() {
  SigReport r;
  r.stamp = 200.0;
  r.window_start = 100.0;
  r.updated = {7, 11};
  r.fp_prob = 0.01;
  return r;
}

PiggyDigest sample_digest() {
  PiggyDigest r;
  r.stamp = 55.5;
  r.horizon_start = 25.5;
  r.updated = {1, 2, 3};
  r.complete = false;
  return r;
}

BsReport sample_bs() {
  BsReport r;
  r.stamp = 512.0;
  r.boundaries = {0.0, 256.0, 384.0, 448.0};
  r.updates = {{9, 300.0}, {10, 450.0}};
  return r;
}

/// Decode `bytes`, expecting the alternative T (empty T on failure).
template <typename T>
T decode_as(const std::vector<std::uint8_t>& bytes) {
  Payload out;
  std::string error;
  EXPECT_TRUE(decode_report(bytes.data(), bytes.size(), &out, &error)) << error;
  const auto* p = std::get_if<T>(&out);
  EXPECT_NE(p, nullptr) << "decoded alternative " << out.index();
  return p != nullptr ? *p : T{};
}

/// Field-wise equality of the report alternatives (they carry no operator==).
bool same(const FullReport& a, const FullReport& b) {
  return a.stamp == b.stamp && a.window_start == b.window_start &&
         a.updates == b.updates;
}
bool same(const MiniReport& a, const MiniReport& b) {
  return a.stamp == b.stamp && a.anchor == b.anchor && a.updated == b.updated;
}
bool same(const SigReport& a, const SigReport& b) {
  return a.stamp == b.stamp && a.window_start == b.window_start &&
         a.updated == b.updated && a.fp_prob == b.fp_prob;
}
bool same(const PiggyDigest& a, const PiggyDigest& b) {
  return a.stamp == b.stamp && a.horizon_start == b.horizon_start &&
         a.updated == b.updated && a.complete == b.complete;
}
bool same(const BsReport& a, const BsReport& b) {
  return a.stamp == b.stamp && a.boundaries == b.boundaries &&
         a.updates == b.updates;
}

TEST(ReportCodec, FullRoundTrip) {
  const FullReport in = sample_full();
  const auto back = decode_as<FullReport>(encode_report(in));
  EXPECT_EQ(back.stamp, in.stamp);
  EXPECT_EQ(back.window_start, in.window_start);
  EXPECT_EQ(back.updates, in.updates);
}

TEST(ReportCodec, MiniRoundTrip) {
  const MiniReport in = sample_mini();
  const auto back = decode_as<MiniReport>(encode_report(in));
  EXPECT_EQ(back.stamp, in.stamp);
  EXPECT_EQ(back.anchor, in.anchor);
  EXPECT_EQ(back.updated, in.updated);
}

TEST(ReportCodec, SigRoundTrip) {
  const SigReport in = sample_sig();
  const auto back = decode_as<SigReport>(encode_report(in));
  EXPECT_EQ(back.stamp, in.stamp);
  EXPECT_EQ(back.window_start, in.window_start);
  EXPECT_EQ(back.updated, in.updated);
  EXPECT_EQ(back.fp_prob, in.fp_prob);
}

TEST(ReportCodec, DigestRoundTrip) {
  const PiggyDigest in = sample_digest();
  const auto back = decode_as<PiggyDigest>(encode_report(in));
  EXPECT_EQ(back.stamp, in.stamp);
  EXPECT_EQ(back.horizon_start, in.horizon_start);
  EXPECT_EQ(back.updated, in.updated);
  EXPECT_EQ(back.complete, in.complete);
}

TEST(ReportCodec, BsRoundTrip) {
  const BsReport in = sample_bs();
  const auto back = decode_as<BsReport>(encode_report(in));
  EXPECT_EQ(back.stamp, in.stamp);
  EXPECT_EQ(back.boundaries, in.boundaries);
  EXPECT_EQ(back.updates, in.updates);
}

TEST(ReportCodec, EmptyListsRoundTrip) {
  FullReport in;
  in.stamp = 1.0;
  const auto back = decode_as<FullReport>(encode_report(in));
  EXPECT_TRUE(back.updates.empty());
}

/// The one Payload entry point (used by the byzantine fault path and the
/// serve socket): every report alternative round-trips to the same
/// alternative with equal fields; every other alternative has no frame.
TEST(ReportCodec, PayloadEntryPointCoversEveryAlternative) {
  const Payload reports[] = {sample_full(), sample_mini(), sample_sig(),
                             sample_digest(), sample_bs()};
  for (const Payload& in : reports) {
    SCOPED_TRACE(in.index());
    const auto bytes = encode_report(in);
    ASSERT_FALSE(bytes.empty());
    Payload out;
    std::string error;
    ASSERT_TRUE(decode_report(bytes.data(), bytes.size(), &out, &error))
        << error;
    ASSERT_EQ(out.index(), in.index());
    std::visit(
        [&out](const auto& sent) {
          using T = std::decay_t<decltype(sent)>;
          if constexpr (requires { same(sent, sent); })
            EXPECT_TRUE(same(sent, std::get<T>(out)));
          else
            ADD_FAILURE() << "not a report alternative";
        },
        in);
  }

  ItemPayload item;
  item.digest = sample_digest();
  DataPayload data;
  data.digest = sample_digest();
  const Payload others[] = {std::monostate{}, item, data, PollAck{},
                            InvalidateNotice{}};
  for (const Payload& p : others)
    EXPECT_TRUE(encode_report(p).empty()) << "alternative " << p.index();
}

// --- corruption ------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> all_samples() {
  return {encode_report(sample_full()), encode_report(sample_mini()),
          encode_report(sample_sig()), encode_report(sample_digest()),
          encode_report(sample_bs())};
}

TEST(ReportCodecCorruption, EveryTruncationFailsCleanly) {
  for (const auto& bytes : all_samples()) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      Payload out;
      std::string error;
      EXPECT_FALSE(decode_report(bytes.data(), len, &out, &error))
          << "prefix of " << len << " bytes decoded";
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ReportCodecCorruption, BadMagicVersionKind) {
  auto bytes = encode_report(sample_full());
  Payload out;
  std::string error;

  auto corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_FALSE(decode_report(corrupted.data(), corrupted.size(), &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  corrupted = bytes;
  corrupted[2] = kReportCodecVersion + 1;
  EXPECT_FALSE(decode_report(corrupted.data(), corrupted.size(), &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  corrupted = bytes;
  corrupted[3] = 200;  // no such ReportWireKind
  EXPECT_FALSE(decode_report(corrupted.data(), corrupted.size(), &out, &error));
  EXPECT_NE(error.find("kind"), std::string::npos);
}

TEST(ReportCodecCorruption, TrailingBytesRejected) {
  auto bytes = encode_report(sample_mini());
  bytes.push_back(0);
  Payload out;
  std::string error;
  EXPECT_FALSE(decode_report(bytes.data(), bytes.size(), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(ReportCodecCorruption, HugeCountRejectedBeforeAllocation) {
  // Hand-build a FullReport whose update count claims 2^32-1 entries with no
  // bytes behind it: the decoder must reject on the remaining-bytes cap.
  std::vector<std::uint8_t> bytes = {'W', 'R', kReportCodecVersion, 0};
  const double zero = 0.0;
  for (int i = 0; i < 2; ++i) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&zero);
    bytes.insert(bytes.end(), p, p + sizeof zero);
  }
  const std::uint32_t huge = 0xffffffffu;
  const auto* p = reinterpret_cast<const std::uint8_t*>(&huge);
  bytes.insert(bytes.end(), p, p + sizeof huge);
  Payload out;
  std::string error;
  EXPECT_FALSE(decode_report(bytes.data(), bytes.size(), &out, &error));
  EXPECT_NE(error.find("overruns"), std::string::npos);
}

TEST(ReportCodecCorruption, EverySingleBitFlipIsHandled) {
  for (const auto& bytes : all_samples()) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto corrupted = bytes;
        corrupted[i] = static_cast<std::uint8_t>(corrupted[i] ^ (1u << bit));
        Payload out;
        std::string error;
        // Either verdict is acceptable; the requirement is a clean return and,
        // on success, a structurally sane payload.
        if (decode_report(corrupted.data(), corrupted.size(), &out, &error)) {
          ASSERT_FALSE(std::holds_alternative<std::monostate>(out));
        } else {
          EXPECT_FALSE(error.empty());
        }
      }
    }
  }
}

TEST(ReportCodecCorruption, RandomMutationStorm) {
  Rng rng(0xc0dec);
  const auto samples = all_samples();
  for (int round = 0; round < 2000; ++round) {
    auto bytes = samples[rng.uniform_int(samples.size())];
    const auto mutations = 1 + rng.uniform_int(8);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const auto pos = rng.uniform_int(bytes.size());
      bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    if (rng.bernoulli(0.3))
      bytes.resize(rng.uniform_int(bytes.size() + 1));
    Payload out;
    std::string error;
    if (decode_report(bytes.data(), bytes.size(), &out, &error)) {
      ASSERT_FALSE(std::holds_alternative<std::monostate>(out));
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ReportCodec, KindNames) {
  EXPECT_STREQ(to_string(ReportWireKind::kFull), "FULL");
  EXPECT_STREQ(to_string(ReportWireKind::kBs), "BS");
}

}  // namespace
}  // namespace wdc
