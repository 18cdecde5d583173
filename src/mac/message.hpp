#ifndef WDC_MAC_MESSAGE_HPP
#define WDC_MAC_MESSAGE_HPP

/// @file message.hpp
/// Downlink message model. The MAC treats payloads opaquely: a frame's
/// content is a `Payload` value (proto/reports.hpp) that only protocols read.

#include <cstdint>

#include "proto/reports.hpp"
#include "util/types.hpp"

namespace wdc {

/// Downlink transmission classes, in strict priority order (lower = served first).
enum class MsgKind : std::uint8_t {
  kInvalidationReport = 0,  ///< full periodic IR
  kMiniReport = 1,          ///< UIR-style mini report
  kControl = 2,             ///< small per-client control messages (poll acks, …)
  kItemData = 3,            ///< database item broadcast after a cache miss
  kDownlinkData = 4,        ///< background downlink traffic (web, push, …)
};
inline constexpr std::size_t kNumMsgKinds = 5;

const char* to_string(MsgKind k);

struct Message {
  MsgKind kind = MsgKind::kDownlinkData;
  Bits bits = 0;
  /// Unicast destination; kInvalidClient means broadcast.
  ClientId dest = kInvalidClient;
  /// For kItemData: which item this transmission carries, and its version.
  ItemId item = kInvalidItem;
  Version version = 0;
  /// Piggyback digest space consumed on this frame (accounting; contents live in
  /// `payload`). Zero when the frame carries no digest.
  Bits piggyback_bits = 0;
  /// Per-transmission number the MAC stamps at enqueue (1, 2, …; 0 = never
  /// enqueued). ARQ retries keep it, so it names this frame's content.
  std::uint64_t seq = 0;
  Payload payload;

  bool is_broadcast() const { return dest == kInvalidClient; }
};

/// What a listening client learns about one completed downlink transmission.
struct Reception {
  const Message& msg;
  bool decoded;        ///< this client's decode outcome
  double airtime_s;    ///< how long the radio was occupied (energy accounting)
  std::size_t mcs;     ///< scheme the transmission used
};

}  // namespace wdc

#endif  // WDC_MAC_MESSAGE_HPP
