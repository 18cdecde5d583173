#include "proto/report_codec.hpp"

#include <utility>
#include <variant>

#include "proto/wire_bytes.hpp"

namespace wdc {
namespace {

constexpr std::uint8_t kMagic0 = 'W';
constexpr std::uint8_t kMagic1 = 'R';

// The byte-level writer/reader pair and the FNV-1a checksum live in
// proto/wire_bytes.hpp, shared with the socket envelope codec (serve_codec) —
// one bounds-checking / count-pre-validation discipline for every wire format.
using wire::ByteReader;
using wire::ByteWriter;
using wire::fnv1a32;

ByteWriter header(ReportWireKind kind, std::size_t reserve) {
  ByteWriter w(reserve + 4);
  w.u8(kMagic0);
  w.u8(kMagic1);
  w.u8(kReportCodecVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  return w;
}

bool read_id_time_pairs(ByteReader& r,
                        std::vector<std::pair<ItemId, SimTime>>* out,
                        const char* what) {
  std::size_t n = 0;
  if (!r.count(sizeof(ItemId) + sizeof(SimTime), &n, what)) return false;
  out->resize(n);
  for (auto& [id, t] : *out)
    if (!r.u32(&id, what) || !r.f64(&t, what)) return false;
  return true;
}

bool read_ids(ByteReader& r, std::vector<ItemId>* out, const char* what) {
  std::size_t n = 0;
  if (!r.count(sizeof(ItemId), &n, what)) return false;
  out->resize(n);
  for (auto& id : *out)
    if (!r.u32(&id, what)) return false;
  return true;
}

/// Decode the body of a `kind` frame into *out; false on any defect.
bool decode_body(ByteReader& r, ReportWireKind kind, Payload* out) {
  switch (kind) {
    case ReportWireKind::kFull: {
      auto& p = out->emplace<FullReport>();
      return r.f64(&p.stamp, "full.stamp") &&
             r.f64(&p.window_start, "full.window_start") &&
             read_id_time_pairs(r, &p.updates, "full.updates");
    }
    case ReportWireKind::kMini: {
      auto& p = out->emplace<MiniReport>();
      return r.f64(&p.stamp, "mini.stamp") &&
             r.f64(&p.anchor, "mini.anchor") &&
             read_ids(r, &p.updated, "mini.updated");
    }
    case ReportWireKind::kSig: {
      auto& p = out->emplace<SigReport>();
      if (!r.f64(&p.stamp, "sig.stamp") ||
          !r.f64(&p.window_start, "sig.window_start") ||
          !r.f64(&p.fp_prob, "sig.fp_prob") ||
          !read_ids(r, &p.updated, "sig.updated"))
        return false;
      if (p.fp_prob < 0.0 || p.fp_prob > 1.0) {
        r.fail("probability out of [0,1]:", "sig.fp_prob");
        return false;
      }
      return true;
    }
    case ReportWireKind::kDigest: {
      auto& p = out->emplace<PiggyDigest>();
      std::uint8_t complete = 0;
      if (!r.f64(&p.stamp, "digest.stamp") ||
          !r.f64(&p.horizon_start, "digest.horizon_start") ||
          !r.u8(&complete, "digest.complete") ||
          !read_ids(r, &p.updated, "digest.updated"))
        return false;
      if (complete > 1) {
        r.fail("boolean out of {0,1}:", "digest.complete");
        return false;
      }
      p.complete = complete != 0;
      return true;
    }
    case ReportWireKind::kBs: {
      auto& p = out->emplace<BsReport>();
      if (!r.f64(&p.stamp, "bs.stamp")) return false;
      std::size_t nb = 0;
      if (!r.count(sizeof(SimTime), &nb, "bs.boundaries")) return false;
      p.boundaries.resize(nb);
      for (auto& b : p.boundaries)
        if (!r.f64(&b, "bs.boundaries")) return false;
      return read_id_time_pairs(r, &p.updates, "bs.updates");
    }
  }
  r.fail("unknown", "report kind");
  return false;
}

std::vector<std::uint8_t> encode(const FullReport& r) {
  ByteWriter w = header(ReportWireKind::kFull, 20 + 12 * r.updates.size());
  w.f64(r.stamp);
  w.f64(r.window_start);
  w.count(r.updates.size());
  for (const auto& [id, t] : r.updates) {
    w.u32(id);
    w.f64(t);
  }
  return w.take();
}

std::vector<std::uint8_t> encode(const MiniReport& r) {
  ByteWriter w = header(ReportWireKind::kMini, 20 + 4 * r.updated.size());
  w.f64(r.stamp);
  w.f64(r.anchor);
  w.count(r.updated.size());
  for (const ItemId id : r.updated) w.u32(id);
  return w.take();
}

std::vector<std::uint8_t> encode(const SigReport& r) {
  ByteWriter w = header(ReportWireKind::kSig, 28 + 4 * r.updated.size());
  w.f64(r.stamp);
  w.f64(r.window_start);
  w.f64(r.fp_prob);
  w.count(r.updated.size());
  for (const ItemId id : r.updated) w.u32(id);
  return w.take();
}

std::vector<std::uint8_t> encode(const PiggyDigest& r) {
  ByteWriter w = header(ReportWireKind::kDigest, 21 + 4 * r.updated.size());
  w.f64(r.stamp);
  w.f64(r.horizon_start);
  w.u8(r.complete ? 1 : 0);
  w.count(r.updated.size());
  for (const ItemId id : r.updated) w.u32(id);
  return w.take();
}

std::vector<std::uint8_t> encode(const BsReport& r) {
  ByteWriter w = header(ReportWireKind::kBs,
                        16 + 8 * r.boundaries.size() + 12 * r.updates.size());
  w.f64(r.stamp);
  w.count(r.boundaries.size());
  for (const SimTime b : r.boundaries) w.f64(b);
  w.count(r.updates.size());
  for (const auto& [id, t] : r.updates) {
    w.u32(id);
    w.f64(t);
  }
  return w.take();
}

}  // namespace

const char* to_string(ReportWireKind k) {
  switch (k) {
    case ReportWireKind::kFull: return "FULL";
    case ReportWireKind::kMini: return "MINI";
    case ReportWireKind::kSig: return "SIG";
    case ReportWireKind::kDigest: return "DIGEST";
    case ReportWireKind::kBs: return "BS";
  }
  return "?";
}

std::vector<std::uint8_t> encode_report(const Payload& p) {
  return std::visit(
      [](const auto& alt) -> std::vector<std::uint8_t> {
        if constexpr (requires { encode(alt); })
          return encode(alt);
        else
          return {};
      },
      p);
}

std::vector<std::uint8_t> encode_report(const PiggyDigest& r) {
  return encode(r);
}

bool decode_report(const std::uint8_t* data, std::size_t size, Payload* out,
                   std::string* error) {
  const auto set_error = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  ByteReader r(data, size);
  std::uint8_t m0 = 0, m1 = 0, version = 0, kind = 0;
  if (!r.u8(&m0, "magic") || !r.u8(&m1, "magic"))
    return set_error(r.error());
  if (m0 != kMagic0 || m1 != kMagic1) return set_error("bad magic");
  if (!r.u8(&version, "version")) return set_error(r.error());
  if (version != kReportCodecVersion)
    return set_error("unsupported version " + std::to_string(version));
  if (!r.u8(&kind, "kind")) return set_error(r.error());
  if (kind > static_cast<std::uint8_t>(ReportWireKind::kBs))
    return set_error("unknown report kind " + std::to_string(kind));

  Payload payload;
  if (!decode_body(r, static_cast<ReportWireKind>(kind), &payload))
    return set_error(r.error());
  // The checksum seals everything before it: header + body, but not any
  // trailing garbage (which the strictness check below still rejects).
  const std::size_t sealed = size - r.remaining();
  std::uint32_t expect = 0;
  if (!r.u32(&expect, "checksum")) return set_error(r.error());
  if (expect != fnv1a32(data, sealed)) return set_error("checksum mismatch");
  if (r.remaining() != 0)
    return set_error(std::to_string(r.remaining()) + " trailing bytes");
  *out = std::move(payload);
  return true;
}

}  // namespace wdc
