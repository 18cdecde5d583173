#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/lru_cache.hpp"
#include "util/rng.hpp"

/// Differential test of the slab/intrusive-list LruCache against a naive
/// vector reference (MRU-first ordering by explicit reordering), driven by a
/// randomized query/invalidate/evict script. The reference is obviously
/// correct; the cache must agree on every observable: presence, entry fields,
/// the full MRU→LRU order, the evicted victim of each put, and the lifetime
/// counters. Death tests then prove audit() catches seeded slab corruption,
/// injected through LruCacheTestPeer (a friend of LruCache).

namespace wdc {

struct LruCacheTestPeer {
  /// Point an id's index entry at the wrong slab slot.
  static void misdirect_index(LruCache& c, ItemId id) {
    c.index_[id] = (c.index_[id] + 1) % static_cast<std::uint32_t>(c.nodes_.size());
  }
  /// Snap a back-link in the recency list.
  static void break_back_link(LruCache& c) {
    c.nodes_[c.tail_].prev = LruCache::kNil;
  }
  /// Leak a node: claim one fewer resident entry than the list holds.
  static void deflate_size(LruCache& c) { --c.size_; }

  /// Slab nodes in use (resident + free) and slab room allocated.
  static std::size_t slab_nodes(const LruCache& c) { return c.nodes_.size(); }
  static std::size_t slab_room(const LruCache& c) {
    return c.nodes_.capacity();
  }
  /// Length of the free chain.
  static std::size_t free_nodes(const LruCache& c) {
    std::size_t n = 0;
    for (std::uint32_t f = c.free_head_; f != LruCache::kNil;
         f = c.nodes_[f].next)
      ++n;
    return n;
  }
};

namespace {

TEST(LruCacheModel, FreshCacheReservesNoSlab) {
  // Construction costs what a client holds, not what it could hold.
  const LruCache cache(150);
  EXPECT_EQ(LruCacheTestPeer::slab_nodes(cache), 0u);
  EXPECT_EQ(LruCacheTestPeer::slab_room(cache), 0u);
}

TEST(LruCacheModel, RandomScriptMatchesVectorReference) {
  constexpr std::size_t kCapacity = 8;
  constexpr ItemId kIdSpace = 24;  // small id space ⇒ frequent re-put/overwrite
  LruCache cache(kCapacity);
  std::vector<CacheEntry> model;  // front = MRU, back = LRU
  Rng rng(5150);
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::size_t high_water = 0;  // most entries ever resident after a call

  const auto model_find = [&](ItemId id) {
    return std::find_if(model.begin(), model.end(),
                        [id](const CacheEntry& e) { return e.id == id; });
  };

  for (int step = 0; step < 20000; ++step) {
    const ItemId id = static_cast<ItemId>(rng.uniform_int(kIdSpace));
    const double u = rng.uniform();
    if (u < 0.35) {
      // Query: get() must agree with the model on presence and fields, and
      // promote the entry to MRU on a hit.
      CacheEntry* got = cache.get(id);
      const auto it = model_find(id);
      if (it == model.end()) {
        EXPECT_EQ(got, nullptr);
        ++misses;
      } else {
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->id, it->id);
        EXPECT_EQ(got->version, it->version);
        EXPECT_DOUBLE_EQ(got->version_time, it->version_time);
        EXPECT_DOUBLE_EQ(got->validated_at, it->validated_at);
        std::rotate(model.begin(), it, it + 1);  // promote to front
        ++hits;
      }
    } else if (u < 0.65) {
      // Put (fetch after a miss, or refresh): insert/overwrite at MRU; the
      // victim, if any, must be the model's LRU tail.
      CacheEntry e;
      e.id = id;
      e.version = static_cast<Version>(step);
      e.version_time = 0.25 * step;
      e.validated_at = 0.25 * step;
      const auto victim = cache.put(e);
      if (const auto it = model_find(id); it != model.end()) {
        *it = e;
        std::rotate(model.begin(), it, it + 1);
        EXPECT_FALSE(victim.has_value());
      } else {
        model.insert(model.begin(), e);
        if (model.size() > kCapacity) {
          ASSERT_TRUE(victim.has_value());
          EXPECT_EQ(*victim, model.back().id);
          model.pop_back();
          ++evictions;
        } else {
          EXPECT_FALSE(victim.has_value());
        }
      }
    } else if (u < 0.85) {
      // Invalidate: erase() agrees on presence; recency of survivors intact.
      const auto it = model_find(id);
      EXPECT_EQ(cache.erase(id), it != model.end());
      if (it != model.end()) model.erase(it);
    } else if (u < 0.95) {
      // Report certifies the whole cache: stamps only move forward.
      const double stamp = 0.25 * step;
      cache.revalidate_all(stamp);
      for (auto& e : model) e.validated_at = std::max(e.validated_at, stamp);
    } else {
      // Losing report continuity drops everything.
      cache.clear();
      model.clear();
    }

    ASSERT_EQ(cache.size(), model.size());
    // The slab grows on demand: every node is resident or free, and there
    // are only as many as were ever needed at once (a put into a full cache
    // holds one node more than capacity until it evicts).
    high_water = std::max(high_water, cache.size());
    const std::size_t nodes = LruCacheTestPeer::slab_nodes(cache);
    ASSERT_EQ(nodes, cache.size() + LruCacheTestPeer::free_nodes(cache));
    ASSERT_GE(nodes, high_water);
    ASSERT_LE(nodes, high_water == kCapacity ? kCapacity + 1 : high_water);
    if (step % 250 == 0) {
      // Full-order comparison: resident() documents MRU→LRU order.
      const auto ids = cache.resident();
      ASSERT_EQ(ids.size(), model.size());
      for (std::size_t i = 0; i < ids.size(); ++i)
        ASSERT_EQ(ids[i], model[i].id) << "MRU order diverged at rank " << i;
      for (const auto& e : model) {
        const CacheEntry* p = cache.peek(e.id);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->version, e.version);
        EXPECT_DOUBLE_EQ(p->validated_at, e.validated_at);
      }
      cache.audit();
    }
  }

  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.evictions(), evictions);
}

using LruCacheDeathTest = ::testing::Test;

TEST(LruCacheDeathTest, AuditCatchesMisdirectedIndex) {
#if !WDC_CHECKS_ENABLED
  GTEST_SKIP() << "WDC checks compiled out of this build";
#else
  EXPECT_DEATH(
      {
        LruCache c(4);
        for (ItemId id = 0; id < 3; ++id) c.put({id, 1, 0.0, 0.0});
        LruCacheTestPeer::misdirect_index(c, 1);
        c.audit();
      },
      "WDC invariant violated");
#endif
}

TEST(LruCacheDeathTest, AuditCatchesBrokenBackLink) {
#if !WDC_CHECKS_ENABLED
  GTEST_SKIP() << "WDC checks compiled out of this build";
#else
  EXPECT_DEATH(
      {
        LruCache c(4);
        for (ItemId id = 0; id < 3; ++id) c.put({id, 1, 0.0, 0.0});
        LruCacheTestPeer::break_back_link(c);
        c.audit();
      },
      "WDC invariant violated");
#endif
}

TEST(LruCacheDeathTest, AuditCatchesDeflatedSize) {
#if !WDC_CHECKS_ENABLED
  GTEST_SKIP() << "WDC checks compiled out of this build";
#else
  EXPECT_DEATH(
      {
        LruCache c(4);
        for (ItemId id = 0; id < 3; ++id) c.put({id, 1, 0.0, 0.0});
        LruCacheTestPeer::deflate_size(c);
        c.audit();
      },
      "WDC invariant violated");
#endif
}

}  // namespace
}  // namespace wdc
