#ifndef WDC_CHANNEL_JAKES_BANK_HPP
#define WDC_CHANNEL_JAKES_BANK_HPP

/// @file jakes_bank.hpp
/// The Rayleigh fader: every link of a cell in one bank. Each link is a
/// Pop–Beaulieu sum-of-sinusoids Jakes simulator with random phases,
/// producing a *time-coherent* power gain g(t) = |h(t)|², E[g] = 1, with
/// autocorrelation ≈ J₀(2π·f_d·τ)² — the property link adaptation exploits
/// (good now ⇒ probably good a moment later).
///
/// Layout: links are grouped into blocks of kLanes, and a block stores its
/// oscillators lane-interleaved, `[block][k][freq | I phase | Q phase][lane]`,
/// so one kernel call evaluates kLanes links in lock-step SIMD and reads its
/// block front to back. The I and Q branches share each oscillator's
/// frequency, which is stored once.
///
/// Every lane runs exactly the per-link operation sequence: per oscillator
/// `cos_turns(f·t + φ)` (the pinned polynomial in fastcos.hpp), accumulated
/// in k-ascending order from 0.0, scaled by the norm, then `hi² + hq²`.
/// IEEE add/mul are exact per lane and the library is compiled with
/// contraction off, so the vector width never changes a bit: the one-lane
/// path (power_gain), the baseline block kernel and its AVX2 / AVX-512
/// instantiations agree bit for bit, and tests/channel holds them all to the
/// per-link reference loop and to the libm oracle. The widest variant the
/// host supports is picked once, with __builtin_cpu_supports.
///
/// g(t) is a pure function of t given the phases — no state advance, safe to
/// evaluate from any thread, bit-stable under re-evaluation.

#include <cstddef>
#include <memory>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace wdc {

class JakesBank {
 public:
  /// Links per block: one AVX-512 register of doubles.
  static constexpr std::size_t kLanes = 8;
  /// Hard cap on oscillators per quadrature branch.
  static constexpr unsigned kMaxOscillators = 64;

  /// Block-kernel instantiations. kBaseline is the build's own ISA (SSE2 on
  /// x86-64) and runs everywhere; the others need the host's support.
  enum class Isa { kBaseline, kAvx2, kAvx512 };
  static bool supported(Isa isa);
  /// The variant block_gain(block, t, g) runs on this host.
  static Isa host_isa();

  JakesBank(double doppler_hz, unsigned oscillators = 16);

  /// Append one link. Draws 3 uniforms per oscillator (θ, φ_I, φ_Q, in that
  /// order) from `rng` — the same stream consumption as the libm oracle.
  void add(Rng& rng);
  /// Room for `n` links in all.
  void reserve(std::size_t n) { blocks_.reserve((n + kLanes - 1) / kLanes); }

  std::size_t size() const { return size_; }
  std::size_t blocks() const { return (size_ + kLanes - 1) / kLanes; }

  /// One link's instantaneous power gain |h(t)|² (the kernel at one lane).
  double power_gain(std::size_t link, SimTime t) const;

  /// Power gains at t of block `block`'s kLanes links into g[0, kLanes).
  /// Lanes past size() hold zero oscillators; their values mean nothing.
  void block_gain(std::size_t block, SimTime t, double* g) const;
  /// The same through a named variant (tests and benches; `isa` must be
  /// supported).
  void block_gain(std::size_t block, SimTime t, double* g, Isa isa) const;

 private:
  const double* block_data(std::size_t block) const {
    return blocks_[block].get();
  }

  double doppler_hz_;
  unsigned n_;
  double norm_;
  std::size_t size_ = 0;
  /// One heap block per kLanes links, allocated as the links arrive: small
  /// allocations like the rest of a client's state, so building and tearing
  /// down a large cell reuses heap pages instead of mapping (and faulting)
  /// one cell-sized array each time.
  std::vector<std::unique_ptr<double[]>> blocks_;
};

/// A power gain in dB, floored at −120 dB: 10·log10(max(g, 1e-12)).
double gain_db(double g);

}  // namespace wdc

#endif  // WDC_CHANNEL_JAKES_BANK_HPP
