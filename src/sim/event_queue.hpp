#ifndef WDC_SIM_EVENT_QUEUE_HPP
#define WDC_SIM_EVENT_QUEUE_HPP

/// @file event_queue.hpp
/// The pending-event set: a 4-ary heap of POD keys over a generation-stamped
/// slot pool, with lazy cancellation.
///
/// ## Hot-path design (see docs/ANALYSIS.md §kernel)
///  * Actions live in a recycled slot pool; heap entries are 24-byte POD keys,
///    so sift operations move keys, never callables, and push/cancel/pop never
///    hash — cancel is an O(1) indexed slot lookup (the old design paid two
///    unordered_set operations per event).
///  * The heap is 4-ary: ~half the depth of a binary heap, and the 4-child
///    minimum scan runs over one cache line of keys.
///  * Cancellation marks the slot and frees its action immediately; the dead
///    key is skipped when it surfaces at the heap top (lazy removal, the
///    standard trick for simulators with heavy timer churn — our protocols
///    cancel deferred-IR timers constantly).
///  * Freed slots go on an intrusive freelist and are recycled; EventId
///    handles carry the slot generation, so a stale handle can never cancel a
///    later event that reused its slot.
///
/// ## Invariants (audited under WDC_CHECKS_ENABLED)
///  * slot conservation: every slot is exactly one of free / pending /
///    cancelled; heap size == pending + cancelled; freelist length == free;
///    `live_` == pending;
///  * heap uniqueness: every heap entry resolves to a distinct non-free slot;
///  * heap order: every parent fires no later than its 4 children (time, then
///    priority, then insertion seq — the stable tie-break);
///  * monotonic pop: the sequence of popped records never goes back in time;
///    no pending record is earlier than the last popped time;
///  * cancelled slots hold no action (captures are released at cancel time).
/// Cheap O(1) slices run on every mutation; the full O(n) structural audit runs
/// every `kAuditPeriod` mutations and on demand via audit().

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/kernel_counters.hpp"
#include "util/check.hpp"

namespace wdc {

namespace detail {
struct EventQueueTestPeer;  // white-box corruption hook for death tests
}  // namespace detail

class EventQueue {
 public:
  /// Insert an event; returns a handle usable with cancel().
  EventId push(SimTime time, EventPriority prio, EventAction action);

  /// Cancel a pending event. Returns false if already fired/cancelled/unknown.
  /// O(1): one indexed slot lookup, no hashing, no heap work.
  bool cancel(EventId id);

  bool empty() const;
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; kNever when empty.
  SimTime next_time() const;

  /// Remove and return the earliest live event. Caller must check !empty().
  detail::EventRecord pop();

  /// Single-pass run-loop fast path: pop the earliest live event into `out` if
  /// it fires at or before `limit`; false when the queue is drained or the
  /// next event is later. Equivalent to !empty() && next_time() <= limit
  /// && (out = pop(), true), with one heap-top inspection instead of three.
  bool pop_due(SimTime limit, detail::EventRecord& out);

  /// Latest time handed out by pop() (-inf before the first pop).
  SimTime last_pop_time() const { return last_pop_time_; }

  /// Kernel perf counters (zeros when compiled out; see kernel_counters.hpp).
  KernelCounters counters() const { return counters_.snapshot(); }

  /// Full structural audit; trips a WDC_CHECK on corruption. No-op when checks
  /// are compiled out.
  void audit() const;

  /// Bytes one pending event holds: its slot (with the inline action) and its
  /// heap key.
  static constexpr std::size_t bytes_per_event() {
    return sizeof(Slot) + sizeof(detail::HeapEntry);
  }

 private:
  friend struct detail::EventQueueTestPeer;

  /// Full audits are amortised: one every kAuditPeriod mutations.
  static constexpr std::uint64_t kAuditPeriod = 64;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  struct Slot {
    EventAction action;
    std::uint32_t gen = 1;            ///< bumped on free; 0 never occurs
    std::uint32_t next_free = kNoSlot;
    SlotState state = SlotState::kFree;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i) const;
  void remove_top() const;
  void drop_dead() const;
  detail::EventRecord take_top();
  void maybe_audit() const;

  // drop_dead() runs from the const observers (empty/next_time), exactly as
  // the old design's mutable heap did — lazy removal is bookkeeping, not
  // observable state.
  mutable std::vector<detail::HeapEntry> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  SimTime last_pop_time_ = -kNever;
  mutable std::uint64_t mutations_ = 0;
  mutable KernelCounterHook counters_;
};

}  // namespace wdc

#endif  // WDC_SIM_EVENT_QUEUE_HPP
