#ifndef WDC_PROTO_REPORTS_HPP
#define WDC_PROTO_REPORTS_HPP

/// @file reports.hpp
/// Wire payloads of the invalidation protocols, with bit-exact size accounting.
///
/// Consistency points are *content-based*: every report carries the server time at
/// which its content was assembled (`stamp`). Queueing and airtime delay delivery,
/// but a client applying a report advances its consistency point to `stamp`, never
/// to the reception time — this keeps the schemes correct under arbitrary MAC delay
/// (including LAIR's deliberate sliding).
///
/// Every frame's content is one alternative of the `Payload` variant declared
/// at the end. The MAC carries it without inspecting it (mac/message.hpp sees
/// this header only, never the wdc_proto library).

#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "util/types.hpp"

namespace wdc {

struct ProtoConfig;

/// Full invalidation report (TS/AT/LAIR and the anchor of UIR/HYB).
struct FullReport {
  SimTime stamp = 0.0;         ///< content-assembly time T
  SimTime window_start = 0.0;  ///< report lists updates in (window_start, stamp]
  /// (id, latest-update-time) pairs for every item updated in the window.
  std::vector<std::pair<ItemId, SimTime>> updates;

  /// Wire size under the given size configuration.
  Bits wire_bits(const ProtoConfig& cfg) const;
};

/// UIR-style mini report: ids updated since the anchoring full report.
struct MiniReport {
  SimTime stamp = 0.0;   ///< content time T_u
  SimTime anchor = 0.0;  ///< stamp of the full report this mini extends
  std::vector<ItemId> updated;

  Bits wire_bits(const ProtoConfig& cfg) const;
};

/// Signature report. The wire format of signature schemes is a vector of combined
/// checksums; we model its *behaviour*: the receiver detects every true update in
/// the coverage window and additionally false-invalidates unchanged entries with
/// probability `fp_prob` (signature collisions). The true update set rides along
/// for the receiver-side behavioural model; its size is NOT charged to the wire —
/// the wire cost is the fixed signature budget.
struct SigReport {
  SimTime stamp = 0.0;
  SimTime window_start = 0.0;
  std::vector<ItemId> updated;  ///< ground truth within the window
  double fp_prob = 0.0;

  /// Fixed: num_items × sig_bits_per_item + header.
  Bits wire_bits(const ProtoConfig& cfg, std::uint32_t num_items) const;
};

/// Piggyback digest attached to downlink frames (PIG/HYB): ids updated in
/// (stamp − horizon, stamp]. `complete` is false when the digest capacity clipped
/// the list — an incomplete digest may invalidate but must not revalidate.
struct PiggyDigest {
  SimTime stamp = 0.0;
  SimTime horizon_start = 0.0;
  std::vector<ItemId> updated;
  bool complete = true;

  Bits wire_bits(const ProtoConfig& cfg) const;
};

/// Content descriptor on item broadcasts: the copy's version and the server time
/// it is current as of.
struct ItemPayload {
  Version version = 0;
  SimTime content_time = 0.0;
  /// CBL: lease granted to requesters, seconds past content_time (0 = none).
  double lease_s = 0.0;
  /// Optional digest piggybacked on the item broadcast (PIG/HYB).
  std::optional<PiggyDigest> digest;
};

/// Downlink data frame payload: opaque app bytes plus an optional digest.
struct DataPayload {
  std::optional<PiggyDigest> digest;
};

/// CBL invalidation notice (unicast control message, ARQ'd by the MAC): the
/// server revokes a lease because the item changed.
struct InvalidateNotice {
  ItemId item = kInvalidItem;
  SimTime update_time = 0.0;
};

/// PER poll reply (unicast control message): is the polled copy still current?
struct PollAck {
  ItemId item = kInvalidItem;
  Version version = 0;        ///< server's current version of the item
  SimTime content_time = 0.0; ///< server time the verdict refers to
  bool valid = false;         ///< polled version == current version
};

/// Bit-Sequences report (Jing et al. 1997), modelled behaviourally.
///
/// The wire format is ~2·N bits of nested bit sequences plus one timestamp per
/// sequence; the information content is: for every item updated since the oldest
/// boundary, *which dyadic interval* its latest update falls into (not the exact
/// time). Receivers therefore keep an entry only when its fetch provably
/// post-dates the update's interval — the granularity over-invalidation that
/// distinguishes BS from TS.
struct BsReport {
  SimTime stamp = 0.0;
  /// Dyadic window boundaries, ascending (oldest first): stamp − L·2^i reversed.
  std::vector<SimTime> boundaries;
  /// Ground truth (id, latest-update-time) for items updated since boundaries[0];
  /// receivers quantise the times to the boundary grid (see ClientBs).
  std::vector<std::pair<ItemId, SimTime>> updates;

  /// Fixed: header + |boundaries|·ts_bits + 2·num_items bits.
  Bits wire_bits(const ProtoConfig& cfg, std::uint32_t num_items) const;
};

/// What one downlink frame carries; std::monostate = nothing.
using Payload =
    std::variant<std::monostate, FullReport, MiniReport, SigReport, PiggyDigest,
                 BsReport, ItemPayload, DataPayload, PollAck, InvalidateNotice>;

}  // namespace wdc

#endif  // WDC_PROTO_REPORTS_HPP
