#ifndef WDC_SIM_KERNEL_COUNTERS_HPP
#define WDC_SIM_KERNEL_COUNTERS_HPP

/// @file kernel_counters.hpp
/// Perf-counter hook for the event kernel: events scheduled/fired/cancelled,
/// lazy-removal work, slot-pool recycling, heap depth high-water mark, and
/// per-subsystem schedule counts (keyed by EventPriority, which maps 1:1 onto
/// the scheduling subsystems — channel, MAC tx, protocol timers, workload,
/// stats probes).
///
/// The hook is compile-time zero-cost: with WDC_PERF_COUNTERS_ENABLED=0
/// (CMake -DWDC_PERF_COUNTERS=OFF) every bump inlines to nothing and the hook
/// object is empty. Counters are instrumentation only — they are surfaced in
/// Metrics and wdc_bench json= output but deliberately EXCLUDED from
/// metrics_digest, so instrumented and stripped builds stay digest-identical.
///
/// LinkPassCounters, under the same gate, count the work of the downlink
/// fan-out pass (channel/downlinks.hpp): the links whose SNR it produced and
/// the padded bank lanes it computed only to discard.

#include <cstddef>
#include <cstdint>

#include "sim/event.hpp"

#ifndef WDC_PERF_COUNTERS_ENABLED
#define WDC_PERF_COUNTERS_ENABLED 1
#endif

namespace wdc {

struct KernelCounters {
  std::uint64_t scheduled = 0;     ///< push() calls
  std::uint64_t fired = 0;         ///< events popped for execution
  std::uint64_t cancelled = 0;     ///< successful cancel() calls
  std::uint64_t dead_skipped = 0;  ///< cancelled records lazily removed
  std::uint64_t slots_reused = 0;  ///< pool recycling hits (vs fresh slots)
  std::uint64_t heap_peak = 0;     ///< heap depth high-water mark
  std::uint64_t scheduled_by_prio[kNumEventPriorities] = {};

  /// Fold another kernel's counters into this one (sharded metrics merge —
  /// one kernel per cell). Sums everywhere except the high-water mark, where
  /// the cells' peaks are concurrent and the max is the honest aggregate.
  void merge_from(const KernelCounters& other) {
    scheduled += other.scheduled;
    fired += other.fired;
    cancelled += other.cancelled;
    dead_skipped += other.dead_skipped;
    slots_reused += other.slots_reused;
    if (other.heap_peak > heap_peak) heap_peak = other.heap_peak;
    for (std::size_t i = 0; i < kNumEventPriorities; ++i)
      scheduled_by_prio[i] += other.scheduled_by_prio[i];
  }
};

struct LinkPassCounters {
  std::uint64_t links_evaluated = 0;  ///< SNRs produced by masked passes
  std::uint64_t padded_lanes = 0;     ///< fader lanes computed and discarded

  void merge_from(const LinkPassCounters& other) {
    links_evaluated += other.links_evaluated;
    padded_lanes += other.padded_lanes;
  }
};

#if WDC_PERF_COUNTERS_ENABLED

class LinkPassCounterHook {
 public:
  void pass(std::size_t evaluated, std::size_t padded) {
    c_.links_evaluated += evaluated;
    c_.padded_lanes += padded;
  }
  LinkPassCounters snapshot() const { return c_; }

 private:
  LinkPassCounters c_;
};

class KernelCounterHook {
 public:
  void schedule(EventPriority prio, std::size_t heap_size) {
    ++c_.scheduled;
    ++c_.scheduled_by_prio[static_cast<std::size_t>(prio)];
    if (heap_size > c_.heap_peak) c_.heap_peak = heap_size;
  }
  void fire() { ++c_.fired; }
  void cancel() { ++c_.cancelled; }
  void dead_skip() { ++c_.dead_skipped; }
  void slot_reuse() { ++c_.slots_reused; }
  KernelCounters snapshot() const { return c_; }

 private:
  KernelCounters c_;
};

#else

/// Stripped build: every hook call compiles to nothing.
class LinkPassCounterHook {
 public:
  void pass(std::size_t, std::size_t) {}
  LinkPassCounters snapshot() const { return {}; }
};

class KernelCounterHook {
 public:
  void schedule(EventPriority, std::size_t) {}
  void fire() {}
  void cancel() {}
  void dead_skip() {}
  void slot_reuse() {}
  KernelCounters snapshot() const { return {}; }
};

#endif  // WDC_PERF_COUNTERS_ENABLED

}  // namespace wdc

#endif  // WDC_SIM_KERNEL_COUNTERS_HPP
