#ifndef WDC_TESTS_ENGINE_GOLDEN_TABLE_HPP
#define WDC_TESTS_ENGINE_GOLDEN_TABLE_HPP

/// The pinned golden operating point and its per-protocol FNV-1a metric
/// digests, shared by the golden tier (engine/golden_digest_test.cpp) and the
/// fault tier's inertness proofs (tests/faults). One definition: a re-pin
/// updates every consumer at once.
///
/// To re-pin after an INTENTIONAL behaviour change, run golden_tests with
/// WDC_PRINT_GOLDEN=1 and paste the printed table over kGolden — and say so
/// loudly in the commit message: changed digests mean changed simulation
/// results for every figure in EXPERIMENTS.md.

#include <cstdint>

#include "engine/scenario.hpp"

namespace wdc {

/// The fixed operating point. Do not change without re-pinning every digest.
inline Scenario golden_scenario(ProtocolKind p) {
  Scenario s;
  s.protocol = p;
  s.seed = 321;
  s.num_clients = 8;
  s.db.num_items = 150;
  s.sim_time_s = 300.0;
  s.warmup_s = 50.0;
  s.sleep.sleep_ratio = 0.1;
  s.traffic.offered_bps = 10e3;
  return s;
}

struct GoldenEntry {
  ProtocolKind protocol;
  std::uint64_t digest;
};

/// Pinned 2026-08-05 from the pre-overhaul kernel (commit 021c777 lineage,
/// libm-cos fader); re-verified 2026-08-08 under the pinned-kernel fader. The
/// re-pin was a measured no-op: the two faders share the oscillator ensemble
/// bit-for-bit (same RNG draws) and differ only by the ≤ ~5e-9 dB
/// cosine-kernel gap, which at this operating point never crosses an
/// MCS/decode decision boundary — all eleven digests came out bit-identical.
/// So these pins also reproduce every pre-kernel experiment; the libm fader
/// itself survives only as the `-L channel` test oracle.
constexpr GoldenEntry kGolden[] = {
    {ProtocolKind::kTs, 0xaf68560caa10c589ull},
    {ProtocolKind::kAt, 0x43462af3ebac66f1ull},
    {ProtocolKind::kSig, 0x2e3730d2c5631397ull},
    {ProtocolKind::kUir, 0xf40f168792e1732cull},
    {ProtocolKind::kLair, 0xdb92b79a74d3718eull},
    {ProtocolKind::kPig, 0xc00cd9b8f9a321cdull},
    {ProtocolKind::kHyb, 0x65abff179ad9e6f5ull},
    {ProtocolKind::kNc, 0x68cca8e4589a1142ull},
    {ProtocolKind::kPer, 0x95e6f474a6ba0dabull},
    {ProtocolKind::kBs, 0xc7c9fc0a4a1b43cdull},
    {ProtocolKind::kCbl, 0xda9a0fc1a1738696ull},
};

static_assert(sizeof(kGolden) / sizeof(kGolden[0]) ==
                  sizeof(kAllProtocolsAndBaselines) /
                      sizeof(kAllProtocolsAndBaselines[0]),
              "golden table must cover every protocol and baseline");

/// Enum spelling for the WDC_PRINT_GOLDEN paste-ready table.
inline const char* enum_name(ProtocolKind p) {
  switch (p) {
    case ProtocolKind::kTs: return "kTs";
    case ProtocolKind::kAt: return "kAt";
    case ProtocolKind::kSig: return "kSig";
    case ProtocolKind::kUir: return "kUir";
    case ProtocolKind::kLair: return "kLair";
    case ProtocolKind::kPig: return "kPig";
    case ProtocolKind::kHyb: return "kHyb";
    case ProtocolKind::kNc: return "kNc";
    case ProtocolKind::kPer: return "kPer";
    case ProtocolKind::kBs: return "kBs";
    case ProtocolKind::kCbl: return "kCbl";
  }
  return "?";
}

}  // namespace wdc

#endif  // WDC_TESTS_ENGINE_GOLDEN_TABLE_HPP
