#ifndef WDC_NET_FRAME_HPP
#define WDC_NET_FRAME_HPP

/// @file frame.hpp
/// The length-prefixed frame layer under the serve/report codecs: a TCP or
/// Unix-domain stream carries `u32 length || payload` records, nothing else.
///
/// Decoding is incremental by construction: FrameDecoder::feed() accepts any
/// byte granularity — a whole frame, a partial read, or one byte at a time —
/// and reassembles across calls. The declared length is validated against the
/// configured ceiling BEFORE any payload allocation, mirroring the codec
/// discipline (a flipped length byte cannot balloon memory), and a violation
/// poisons the decoder permanently: a stream that lied about a length has
/// lost sync and nothing after the lie can be trusted.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace wdc::net {

/// Default per-frame payload ceiling. Generous against real frames (a
/// full-database report is ~12 kB) while keeping a hostile 4 GiB declaration
/// unallocatable.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Bytes of the length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Wrap `payload` in a frame: u32 length (little-endian) + bytes.
std::vector<std::uint8_t> frame_encode(const std::uint8_t* payload,
                                       std::size_t size);
inline std::vector<std::uint8_t> frame_encode(
    const std::vector<std::uint8_t>& payload) {
  return frame_encode(payload.data(), payload.size());
}

/// Incremental reassembler for one stream direction.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Absorb `n` bytes from the stream. Returns false once the stream is
  /// poisoned (oversized declared length); feeding a poisoned decoder stays
  /// false and absorbs nothing.
  bool feed(const std::uint8_t* p, std::size_t n);

  /// Pop the next completed frame payload; false when none is ready.
  bool next(std::vector<std::uint8_t>* out);

  /// Permanently broken (a declared length exceeded the ceiling)?
  bool broken() const { return broken_; }
  const std::string& error() const { return error_; }

  /// Bytes absorbed but not yet surfaced as completed frames (partial header
  /// + partial payload; completed-but-unpopped frames are not counted).
  std::size_t partial_bytes() const {
    return header_filled_ + partial_.size();
  }
  std::size_t frames_ready() const { return ready_.size(); }

 private:
  std::size_t max_payload_;
  // Header reassembly: the length prefix itself can arrive byte-at-a-time.
  std::uint8_t header_[kFrameHeaderBytes] = {};
  std::size_t header_filled_ = 0;
  // Payload reassembly for the frame in progress.
  bool in_payload_ = false;
  std::size_t expect_ = 0;
  std::vector<std::uint8_t> partial_;
  std::deque<std::vector<std::uint8_t>> ready_;
  bool broken_ = false;
  std::string error_;
};

}  // namespace wdc::net

#endif  // WDC_NET_FRAME_HPP
