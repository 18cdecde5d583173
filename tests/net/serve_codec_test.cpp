/// Round-trip and corruption tests for the serve envelope codec — the same
/// discipline as report_codec_test one layer up: every truncation prefix,
/// every single-bit flip, and a randomized mutation storm must decode cleanly
/// or fail with a reason, never crash or over-allocate (the sanitizer CI job
/// runs this file under ASan/UBSan).

#include "proto/serve_codec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <variant>

#include "proto/report_codec.hpp"
#include "proto/reports.hpp"
#include "proto/wire_bytes.hpp"
#include "util/rng.hpp"

namespace wdc {
namespace {

ServeMessage sample(ServeWireKind kind) {
  ServeMessage m;
  m.kind = kind;
  switch (kind) {
    case ServeWireKind::kHello:
      m.client_nonce = 0xfeedbeef;
      break;
    case ServeWireKind::kHelloAck:
      m.client_nonce = 0xfeedbeef;
      m.client_id = 41;
      m.num_items = 1000;
      m.protocol = 7;
      m.ir_interval_s = 20.0;
      break;
    case ServeWireKind::kRequest:
      m.item = 599;
      m.seq = 12;
      m.sent_at = 1234.5625;
      break;
    case ServeWireKind::kPoll:
      m.item = 3;
      m.version = 9001;
      m.seq = 13;
      m.sent_at = 77.25;
      break;
    case ServeWireKind::kBye:
      break;
    case ServeWireKind::kReport: {
      FullReport r;
      r.stamp = 120.25;
      r.updates = {{3, 61.5}, {17, 90.0}};
      m.report_frame = encode_report(r);
      break;
    }
    case ServeWireKind::kItem:
      m.item = 42;
      m.version = 5;
      m.content_time = 88.0;
      m.lease_s = 30.0;
      m.payload_bits = 65536;
      break;
    case ServeWireKind::kData:
      m.payload_bits = 1 << 20;
      break;
    case ServeWireKind::kInvalidate:
      m.item = 9;
      m.update_time = 301.5;
      break;
    case ServeWireKind::kPollAck:
      m.item = 3;
      m.version = 9002;
      m.content_time = 90.0;
      m.valid = true;
      break;
    case ServeWireKind::kShed:
      m.shed_reason = 1;
      break;
  }
  return m;
}

std::vector<std::vector<std::uint8_t>> all_samples() {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint8_t k = 0; k <= kMaxServeWireKind; ++k)
    out.push_back(encode_serve(sample(static_cast<ServeWireKind>(k))));
  return out;
}

TEST(ServeCodec, EveryKindRoundTrips) {
  for (std::uint8_t k = 0; k <= kMaxServeWireKind; ++k) {
    const auto kind = static_cast<ServeWireKind>(k);
    const ServeMessage in = sample(kind);
    const auto bytes = encode_serve(in);
    ServeMessage out;
    std::string error;
    ASSERT_TRUE(decode_serve(bytes, &out, &error))
        << to_string(kind) << ": " << error;
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.client_nonce, in.client_nonce);
    EXPECT_EQ(out.client_id, in.client_id);
    EXPECT_EQ(out.num_items, in.num_items);
    EXPECT_EQ(out.protocol, in.protocol);
    EXPECT_EQ(out.ir_interval_s, in.ir_interval_s);
    EXPECT_EQ(out.item, in.item);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.sent_at, in.sent_at);
    EXPECT_EQ(out.version, in.version);
    EXPECT_EQ(out.content_time, in.content_time);
    EXPECT_EQ(out.lease_s, in.lease_s);
    EXPECT_EQ(out.valid, in.valid);
    EXPECT_EQ(out.update_time, in.update_time);
    EXPECT_EQ(out.payload_bits, in.payload_bits);
    EXPECT_EQ(out.shed_reason, in.shed_reason);
    EXPECT_EQ(out.report_frame, in.report_frame);
    EXPECT_EQ(out.digest_frame, in.digest_frame);
  }
}

TEST(ServeCodec, NestedReportFrameStaysDecodable) {
  // The kReport envelope carries a report_codec frame verbatim: the nested
  // bytes must still satisfy the inner codec after the round trip.
  const auto bytes = encode_serve(sample(ServeWireKind::kReport));
  ServeMessage out;
  ASSERT_TRUE(decode_serve(bytes, &out));
  Payload inner;
  std::string error;
  ASSERT_TRUE(decode_report(out.report_frame.data(), out.report_frame.size(),
                            &inner, &error))
      << error;
  EXPECT_TRUE(std::holds_alternative<FullReport>(inner));
}

TEST(ServeCodecCorruption, EveryTruncationFailsCleanly) {
  for (const auto& bytes : all_samples()) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      ServeMessage out;
      std::string error;
      EXPECT_FALSE(decode_serve(bytes.data(), len, &out, &error))
          << "prefix of " << len << " bytes decoded";
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ServeCodecCorruption, BadMagicVersionKind) {
  const auto bytes = encode_serve(sample(ServeWireKind::kRequest));
  ServeMessage out;
  std::string error;

  auto corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_FALSE(decode_serve(corrupted, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  corrupted = bytes;
  corrupted[2] = kServeCodecVersion + 1;
  EXPECT_FALSE(decode_serve(corrupted, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  corrupted = bytes;
  corrupted[3] = 200;  // no such ServeWireKind
  EXPECT_FALSE(decode_serve(corrupted, &out, &error));
  EXPECT_NE(error.find("kind"), std::string::npos);
}

TEST(ServeCodecCorruption, TrailingBytesRejected) {
  auto bytes = encode_serve(sample(ServeWireKind::kItem));
  bytes.push_back(0);
  ServeMessage out;
  std::string error;
  EXPECT_FALSE(decode_serve(bytes, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(ServeCodecCorruption, HugeNestedCountRejectedBeforeAllocation) {
  // Hand-build a kReport envelope whose nested-frame byte run claims 2^32-1
  // bytes with nothing behind it: the remaining-bytes cap must reject it
  // before any allocation (the checksum is made valid so the count check is
  // what fires).
  std::vector<std::uint8_t> bytes = {'W', 'S', kServeCodecVersion,
                                     static_cast<std::uint8_t>(
                                         ServeWireKind::kReport)};
  const std::uint32_t huge = 0xffffffffu;
  const auto* p = reinterpret_cast<const std::uint8_t*>(&huge);
  bytes.insert(bytes.end(), p, p + sizeof huge);
  const std::uint32_t sum = wire::fnv1a32(bytes.data(), bytes.size());
  const auto* sp = reinterpret_cast<const std::uint8_t*>(&sum);
  bytes.insert(bytes.end(), sp, sp + sizeof sum);
  ServeMessage out;
  std::string error;
  EXPECT_FALSE(decode_serve(bytes, &out, &error));
  EXPECT_NE(error.find("overruns"), std::string::npos);
}

TEST(ServeCodecCorruption, EverySingleBitFlipIsHandled) {
  for (const auto& bytes : all_samples()) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto corrupted = bytes;
        corrupted[i] = static_cast<std::uint8_t>(corrupted[i] ^ (1u << bit));
        ServeMessage out;
        std::string error;
        // Either verdict is acceptable; the requirement is a clean return
        // with a reason on failure.
        if (!decode_serve(corrupted, &out, &error)) {
          EXPECT_FALSE(error.empty());
        }
      }
    }
  }
}

TEST(ServeCodecCorruption, RandomMutationStorm) {
  Rng rng(0x5e4e);
  const auto samples = all_samples();
  for (int round = 0; round < 2000; ++round) {
    auto bytes = samples[rng.uniform_int(samples.size())];
    const std::uint64_t mutations = 1 + rng.uniform_int(8);
    for (std::uint64_t m = 0; m < mutations; ++m)
      bytes[rng.uniform_int(bytes.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(256));
    if (rng.bernoulli(0.3)) bytes.resize(rng.uniform_int(bytes.size() + 1));
    ServeMessage out;
    std::string error;
    if (!decode_serve(bytes.data(), bytes.size(), &out, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(ServeCodec, KindNames) {
  EXPECT_STREQ(to_string(ServeWireKind::kHello), "HELLO");
  EXPECT_STREQ(to_string(ServeWireKind::kShed), "SHED");
}

}  // namespace
}  // namespace wdc
