#include "proto/reports.hpp"

#include "proto/protocol.hpp"

namespace wdc {

Bits FullReport::wire_bits(const ProtoConfig& cfg) const {
  return cfg.report_header_bits +
         static_cast<Bits>(updates.size()) * (cfg.id_bits + cfg.ts_bits);
}

Bits MiniReport::wire_bits(const ProtoConfig& cfg) const {
  // anchor + stamp live in the header; entries are bare ids.
  return cfg.report_header_bits + static_cast<Bits>(updated.size()) * cfg.id_bits;
}

Bits SigReport::wire_bits(const ProtoConfig& cfg, std::uint32_t num_items) const {
  return cfg.report_header_bits +
         static_cast<Bits>(num_items) * cfg.sig_bits_per_item;
}

Bits PiggyDigest::wire_bits(const ProtoConfig& cfg) const {
  // Small sub-header (stamp, horizon, count, complete-flag) folded into 48 bits.
  return 48 + static_cast<Bits>(updated.size()) * cfg.id_bits;
}

Bits BsReport::wire_bits(const ProtoConfig& cfg, std::uint32_t num_items) const {
  // Jing et al.'s classic space bound: the nested sequences total ~2n bits.
  return cfg.report_header_bits +
         static_cast<Bits>(boundaries.size()) * cfg.ts_bits +
         2u * static_cast<Bits>(num_items);
}

}  // namespace wdc
