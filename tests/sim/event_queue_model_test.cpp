#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

/// Differential test of the event kernel against a naive std::multiset
/// reference: both structures see the same randomized push/cancel/pop script
/// and must agree on every popped record — time, priority AND sequence number,
/// which pins the FIFO tie-break exactly. Times are drawn from a coarse grid so
/// same-time and same-time-same-priority ties are the common case, not a fluke.
///
/// The script also probes the handle lifecycle the slot pool must get right:
/// cancel after fire, double cancel, and stale handles whose slot has been
/// recycled by later pushes (the generation stamp must reject them).

namespace wdc {
namespace {

/// One scheduled event as the reference model sees it.
struct ModelEvent {
  double time;
  EventPriority prio;
  std::uint64_t seq;
};

/// The kernel's documented total order: time, then priority, then seq.
struct FiresBefore {
  bool operator()(const ModelEvent& a, const ModelEvent& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.prio != b.prio) return a.prio < b.prio;
    return a.seq < b.seq;
  }
};

TEST(EventQueueModel, RandomScriptMatchesMultisetReference) {
  EventQueue q;
  Rng rng(90210);
  // Reference: the live event set, plus id→model entry for cancels. The model
  // counts sequence numbers exactly as the kernel does (first push = 1).
  std::multiset<ModelEvent, FiresBefore> model;
  std::map<std::uint64_t, std::multiset<ModelEvent, FiresBefore>::iterator>
      live_by_raw;
  std::vector<EventId> dead_ids;  // fired or cancelled: cancel() must say no
  std::uint64_t next_seq = 1;
  double frontier = 0.0;

  for (int step = 0; step < 30000; ++step) {
    const double u = rng.uniform();
    if (u < 0.45) {
      // Push on a half-second grid: collisions in time (and often priority)
      // are frequent, so the seq tie-break is continuously exercised.
      const double t =
          frontier + 0.5 * static_cast<double>(rng.uniform_int(8));
      const auto prio = static_cast<EventPriority>(rng.uniform_int(6));
      const EventId id = q.push(t, prio, [] {});
      const auto it = model.insert({t, prio, next_seq});
      ASSERT_TRUE(live_by_raw.emplace(id.raw, it).second)
          << "kernel handed out a live handle twice";
      ++next_seq;
    } else if (u < 0.60) {
      // Cancel a live event; both sides must agree it existed.
      if (live_by_raw.empty()) continue;
      auto pick = live_by_raw.begin();
      std::advance(pick, static_cast<long>(rng.uniform_int(live_by_raw.size())));
      EXPECT_TRUE(q.cancel(EventId{pick->first}));
      model.erase(pick->second);
      dead_ids.push_back(EventId{pick->first});
      live_by_raw.erase(pick);
    } else if (u < 0.70) {
      // A dead handle (fired or cancelled) must always be rejected, no matter
      // how many pushes have recycled its slot since.
      if (dead_ids.empty()) continue;
      const EventId stale =
          dead_ids[static_cast<std::size_t>(rng.uniform_int(dead_ids.size()))];
      EXPECT_FALSE(q.cancel(stale));
    } else {
      // Pop: must match the reference's earliest entry in time, priority and
      // sequence number.
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) continue;
      const auto rec = q.pop();
      const auto best = model.begin();
      ASSERT_DOUBLE_EQ(rec.time, best->time);
      ASSERT_EQ(rec.prio, best->prio);
      ASSERT_EQ(rec.seq, best->seq);
      frontier = rec.time;
      // The fired handle is now dead too.
      for (auto it = live_by_raw.begin(); it != live_by_raw.end(); ++it)
        if (it->second == best) {
          dead_ids.push_back(EventId{it->first});
          live_by_raw.erase(it);
          break;
        }
      model.erase(best);
    }
    ASSERT_EQ(q.size(), model.size());
  }

  // Drain in lockstep: the tail must agree record for record.
  q.audit();
  while (!model.empty()) {
    const auto rec = q.pop();
    const auto best = model.begin();
    ASSERT_DOUBLE_EQ(rec.time, best->time);
    ASSERT_EQ(rec.prio, best->prio);
    ASSERT_EQ(rec.seq, best->seq);
    model.erase(best);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueModel, PopDueMatchesReferenceAtEveryLimit) {
  EventQueue q;
  Rng rng(424242);
  std::multiset<ModelEvent, FiresBefore> model;
  std::uint64_t next_seq = 1;
  for (int i = 0; i < 500; ++i) {
    const double t = 0.5 * static_cast<double>(rng.uniform_int(40));
    const auto prio = static_cast<EventPriority>(rng.uniform_int(6));
    q.push(t, prio, [] {});
    model.insert({t, prio, next_seq++});
  }
  // Sweep the limit upward; pop_due must hand over exactly the records at or
  // before each limit, in the reference order, and refuse the rest.
  detail::EventRecord rec;
  for (double limit = 0.0; limit <= 20.0; limit += 0.5) {
    while (q.pop_due(limit, rec)) {
      const auto best = model.begin();
      ASSERT_TRUE(best != model.end());
      ASSERT_LE(best->time, limit);
      ASSERT_DOUBLE_EQ(rec.time, best->time);
      ASSERT_EQ(rec.prio, best->prio);
      ASSERT_EQ(rec.seq, best->seq);
      model.erase(best);
    }
    // Refusal is for the right reason: nothing left at or under the limit.
    ASSERT_TRUE(model.empty() || model.begin()->time > limit);
  }
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueModel, CancelAfterFireOnRecycledSlotIsRejected) {
  EventQueue q;
  // Fire one event, then recycle its slot many times; the stale handle must
  // stay dead and never kill the slot's current tenant.
  const EventId first = q.push(1.0, EventPriority::kDefault, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(first));
  std::vector<EventId> tenants;
  for (int i = 0; i < 8; ++i) {
    // Single-slot pool: each push reuses the slot `first` once occupied.
    const EventId id = q.push(2.0 + i, EventPriority::kDefault, [] {});
    EXPECT_FALSE(q.cancel(first));
    tenants.push_back(id);
    (void)q.pop();
    EXPECT_FALSE(q.cancel(id)) << "fired tenant must be dead";
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace wdc
