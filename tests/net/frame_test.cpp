/// Frame-layer tests: the length-prefixed reassembler under the serve codec.
///
/// Mirrors the report_codec corruption discipline one layer down — truncated
/// length prefixes, oversized declared lengths rejected before any payload
/// allocation, bit-flip storms over the header bytes, and byte-at-a-time
/// reassembly — because a TCP stream deals damage in different units than a
/// decoded frame (partial reads, not flipped fields).

#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "util/rng.hpp"

namespace wdc::net {
namespace {

std::vector<std::uint8_t> payload_of(std::size_t size, std::uint8_t fill) {
  std::vector<std::uint8_t> p(size);
  std::iota(p.begin(), p.end(), fill);
  return p;
}

std::vector<std::uint8_t> stream_of(
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<std::uint8_t> stream;
  for (const auto& p : payloads) {
    const auto f = frame_encode(p);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  return stream;
}

TEST(FrameDecoder, LengthPrefixIsLittleEndian) {
  // The wire format is fixed whatever the host's byte order.
  const auto frame = frame_encode(payload_of(0x0102, 0));
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 0x0102);
  EXPECT_EQ(frame[0], 0x02);
  EXPECT_EQ(frame[1], 0x01);
  EXPECT_EQ(frame[2], 0x00);
  EXPECT_EQ(frame[3], 0x00);
  const std::uint8_t header[kFrameHeaderBytes] = {0x03, 0x00, 0x00, 0x00};
  const std::uint8_t body[3] = {7, 8, 9};
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(header, sizeof header));
  ASSERT_TRUE(dec.feed(body, sizeof body));
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(dec.next(&got));
  EXPECT_EQ(got, std::vector<std::uint8_t>({7, 8, 9}));
}

TEST(FrameDecoder, WholeFramesRoundTrip) {
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(1, 7), payload_of(0, 0), payload_of(1000, 3)};
  const auto stream = stream_of(payloads);
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(stream.data(), stream.size()));
  EXPECT_EQ(dec.frames_ready(), 3u);
  for (const auto& expect : payloads) {
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(dec.next(&got));
    EXPECT_EQ(got, expect);
  }
  std::vector<std::uint8_t> extra;
  EXPECT_FALSE(dec.next(&extra));
  EXPECT_EQ(dec.partial_bytes(), 0u);
}

TEST(FrameDecoder, ByteAtATimeReassembly) {
  // The length prefix itself can arrive one byte per read(); reassembly must
  // be byte-granular on both sides of the header boundary.
  const auto payloads = std::vector<std::vector<std::uint8_t>>{
      payload_of(5, 1), payload_of(257, 9)};
  const auto stream = stream_of(payloads);
  FrameDecoder dec;
  for (const std::uint8_t b : stream) ASSERT_TRUE(dec.feed(&b, 1));
  ASSERT_EQ(dec.frames_ready(), 2u);
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(dec.next(&got));
  EXPECT_EQ(got, payloads[0]);
  ASSERT_TRUE(dec.next(&got));
  EXPECT_EQ(got, payloads[1]);
}

TEST(FrameDecoder, TruncatedLengthPrefixStaysPending) {
  const auto frame = frame_encode(payload_of(32, 0));
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(frame.data(), 2));  // half a length prefix
  EXPECT_EQ(dec.frames_ready(), 0u);
  EXPECT_EQ(dec.partial_bytes(), 2u);
  EXPECT_FALSE(dec.broken());
  // The rest of the stream completes the frame.
  ASSERT_TRUE(dec.feed(frame.data() + 2, frame.size() - 2));
  EXPECT_EQ(dec.frames_ready(), 1u);
}

TEST(FrameDecoder, TruncatedPayloadStaysPending) {
  const auto frame = frame_encode(payload_of(100, 0));
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(frame.data(), kFrameHeaderBytes + 40));
  EXPECT_EQ(dec.frames_ready(), 0u);
  EXPECT_EQ(dec.partial_bytes(), 40u);
  EXPECT_FALSE(dec.broken());
}

TEST(FrameDecoder, OversizedDeclaredLengthRejectedBeforeAllocation) {
  // A hostile 4 GiB declaration must poison the stream at the header, with
  // zero payload bytes buffered — the ceiling check precedes any allocation.
  const std::uint32_t huge = 0xffffffffu;
  std::uint8_t header[kFrameHeaderBytes];
  std::memcpy(header, &huge, sizeof header);
  FrameDecoder dec(/*max_payload=*/1024);
  EXPECT_FALSE(dec.feed(header, sizeof header));
  EXPECT_TRUE(dec.broken());
  EXPECT_NE(dec.error().find("ceiling"), std::string::npos);
  EXPECT_EQ(dec.partial_bytes(), 0u);
}

TEST(FrameDecoder, ExactCeilingIsAccepted) {
  const auto payload = payload_of(1024, 0);
  const auto frame = frame_encode(payload);
  FrameDecoder dec(/*max_payload=*/1024);
  ASSERT_TRUE(dec.feed(frame.data(), frame.size()));
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(dec.next(&got));
  EXPECT_EQ(got.size(), 1024u);
}

TEST(FrameDecoder, PoisonIsPermanent) {
  // A stream that lied about a length has lost sync; nothing after the lie
  // can be trusted, even bytes that would parse as a valid frame.
  const std::uint32_t huge = 1u << 30;
  std::uint8_t header[kFrameHeaderBytes];
  std::memcpy(header, &huge, sizeof header);
  FrameDecoder dec(/*max_payload=*/4096);
  EXPECT_FALSE(dec.feed(header, sizeof header));
  const auto valid = frame_encode(payload_of(8, 0));
  EXPECT_FALSE(dec.feed(valid.data(), valid.size()));
  EXPECT_EQ(dec.frames_ready(), 0u);
  EXPECT_TRUE(dec.broken());
}

TEST(FrameDecoder, HeaderBitFlipsNeverOverAllocate) {
  // Flip every bit of the length prefix of a valid frame: each flip either
  // declares a length within the ceiling (decoder waits or completes a frame
  // of exactly that size) or poisons the stream. No outcome may buffer more
  // than ceiling bytes.
  constexpr std::size_t kCeiling = 4096;
  const auto frame = frame_encode(payload_of(64, 1));
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = frame;
      corrupted[i] = static_cast<std::uint8_t>(corrupted[i] ^ (1u << bit));
      FrameDecoder dec(kCeiling);
      dec.feed(corrupted.data(), corrupted.size());
      if (dec.broken()) {
        EXPECT_EQ(dec.partial_bytes(), 0u);
        continue;
      }
      EXPECT_LE(dec.partial_bytes(), kCeiling);
      std::vector<std::uint8_t> got;
      while (dec.next(&got)) EXPECT_LE(got.size(), kCeiling);
    }
  }
}

TEST(FrameDecoder, RandomMutationStorm) {
  // Randomized chunking + byte mutations over a multi-frame stream: the
  // decoder must never crash, never surface a frame above the ceiling, and
  // never buffer more than ceiling + header bytes.
  constexpr std::size_t kCeiling = 2048;
  Rng rng(0xf4a3e5);
  const auto clean = stream_of({payload_of(16, 0), payload_of(300, 5),
                                payload_of(0, 0), payload_of(900, 9)});
  for (int round = 0; round < 500; ++round) {
    auto stream = clean;
    const std::uint64_t mutations = 1 + rng.uniform_int(6);
    for (std::uint64_t m = 0; m < mutations; ++m)
      stream[rng.uniform_int(stream.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(256));
    if (rng.bernoulli(0.3)) stream.resize(rng.uniform_int(stream.size() + 1));

    FrameDecoder dec(kCeiling);
    std::size_t pos = 0;
    bool ok = true;
    while (ok && pos < stream.size()) {
      const std::size_t chunk =
          1 + rng.uniform_int(std::min<std::size_t>(stream.size() - pos, 97));
      ok = dec.feed(stream.data() + pos, chunk);
      pos += chunk;
      EXPECT_LE(dec.partial_bytes(), kCeiling + kFrameHeaderBytes);
      std::vector<std::uint8_t> got;
      while (dec.next(&got)) EXPECT_LE(got.size(), kCeiling);
    }
    if (!ok) {
      EXPECT_TRUE(dec.broken());
      EXPECT_FALSE(dec.error().empty());
    }
  }
}

}  // namespace
}  // namespace wdc::net
