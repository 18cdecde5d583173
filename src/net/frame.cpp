#include "net/frame.hpp"

#include <algorithm>
#include <cstring>

namespace wdc::net {

std::vector<std::uint8_t> frame_encode(const std::uint8_t* payload,
                                       std::size_t size) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + size);
  const auto len = static_cast<std::uint32_t>(size);
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.insert(out.end(), payload, payload + size);
  return out;
}

bool FrameDecoder::feed(const std::uint8_t* p, std::size_t n) {
  if (broken_) return false;
  while (n > 0) {
    if (!in_payload_) {
      // Reassemble the 4-byte length prefix, possibly one byte per feed().
      const std::size_t take = std::min(n, kFrameHeaderBytes - header_filled_);
      std::memcpy(header_ + header_filled_, p, take);
      header_filled_ += take;
      p += take;
      n -= take;
      if (header_filled_ < kFrameHeaderBytes) return true;
      std::uint32_t len = 0;
      for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
        len |= static_cast<std::uint32_t>(header_[i]) << (8 * i);
      header_filled_ = 0;
      // Ceiling check happens HERE, before partial_ ever grows: a hostile
      // 4 GiB declaration never reaches an allocator.
      if (len > max_payload_) {
        broken_ = true;
        error_ = "declared frame length " + std::to_string(len) +
                 " exceeds ceiling " + std::to_string(max_payload_);
        return false;
      }
      in_payload_ = true;
      expect_ = len;
      partial_.clear();
      partial_.reserve(expect_);
    }
    const std::size_t take = std::min(n, expect_ - partial_.size());
    partial_.insert(partial_.end(), p, p + take);
    p += take;
    n -= take;
    if (partial_.size() == expect_) {
      ready_.push_back(std::move(partial_));
      partial_ = {};
      in_payload_ = false;
      expect_ = 0;
    }
  }
  return true;
}

bool FrameDecoder::next(std::vector<std::uint8_t>* out) {
  if (ready_.empty()) return false;
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

}  // namespace wdc::net
