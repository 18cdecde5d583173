#ifndef WDC_PROTO_REPORT_CODEC_HPP
#define WDC_PROTO_REPORT_CODEC_HPP

/// @file report_codec.hpp
/// Binary (de)serialization of the broadcastable report payloads.
///
/// In-simulator messages carry a `Payload` value; this codec defines the
/// byte-level wire image of its five report alternatives for anything that
/// needs to leave the process (the serve socket, the byzantine fault path,
/// test fixtures). Layout, native-endian like
/// the .wdct trace format (machine-local, not interchange):
///
///   'W' 'R'  version:u8  kind:u8  <kind-specific fields>  checksum:u32
///
/// Variable-length lists are u32-count-prefixed; the decoder rejects any count
/// whose entries could not fit in the remaining bytes BEFORE allocating, so a
/// flipped length byte cannot balloon memory. Every read is bounds-checked and
/// trailing bytes are an error — corrupt input fails cleanly with a reason,
/// never UB (the fuzz-style tests in tests/proto hammer exactly this).
///
/// Version 2 seals every frame with a trailing FNV-1a-32 checksum over all
/// preceding bytes, verified after the body parses and before the
/// trailing-byte check. The structural checks above catch corruption that
/// breaks the *shape* of a frame; the checksum deterministically catches the
/// damage that doesn't — a flipped timestamp bit, a swapped item id — which
/// is exactly what the fault layer's byzantine mode injects in-protocol.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "proto/reports.hpp"

namespace wdc {

inline constexpr std::uint8_t kReportCodecVersion = 2;

/// Wire discriminator of the encoded payload type.
enum class ReportWireKind : std::uint8_t {
  kFull = 0,
  kMini = 1,
  kSig = 2,
  kDigest = 3,
  kBs = 4,
};

const char* to_string(ReportWireKind k);

/// Encode a report payload (full, mini, signature, digest or Bit-Sequences);
/// empty for every other alternative, which has no report wire image.
std::vector<std::uint8_t> encode_report(const Payload& p);
/// The digest piggybacked on item and data frames, encoded on its own.
std::vector<std::uint8_t> encode_report(const PiggyDigest& r);

/// Decode one encoded report into *out, which then holds one of the five
/// report alternatives. Returns false (and sets *error when non-null) on any
/// structural defect: short buffer, bad magic/version/kind, list that
/// overruns the buffer, non-finite timestamp, checksum mismatch, or trailing
/// bytes.
bool decode_report(const std::uint8_t* data, std::size_t size, Payload* out,
                   std::string* error = nullptr);

}  // namespace wdc

#endif  // WDC_PROTO_REPORT_CODEC_HPP
