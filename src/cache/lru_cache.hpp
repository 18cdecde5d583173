#ifndef WDC_CACHE_LRU_CACHE_HPP
#define WDC_CACHE_LRU_CACHE_HPP

/// @file lru_cache.hpp
/// The client-side item cache: LRU replacement, capacity in items.
///
/// Each entry remembers when its copy was fetched/validated so invalidation
/// protocols can reason about consistency:
///  * `version_time` — server update time of the copy the client holds (the copy is
///    "as of" this time);
///  * `validated_at` — last consistency point at which the entry was certified
///    valid (report application time).
///
/// Hot-path layout: the recency list is an intrusive doubly-linked list over a
/// recycled slab, and the id index is a direct-mapped vector (item ids are
/// dense — no hashing). The slab grows on demand to the most entries ever
/// resident at once, so a client that touches a handful of items holds a
/// handful of nodes whatever its capacity, and a warm cache allocates no
/// nodes. Invalidation protocols probe/erase every reported id against every
/// client cache, so lookup cost dominates; a vector probe is one load vs a
/// hash-map find.

#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace wdc {

struct CacheEntry {
  ItemId id = kInvalidItem;
  Version version = 0;        ///< server version counter of the held copy
  SimTime version_time = 0.0; ///< server-side time the copy corresponds to
  SimTime validated_at = 0.0; ///< latest consistency point certifying validity
};

class LruCache {
 public:
  explicit LruCache(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Lookup without touching recency. nullptr if absent.
  const CacheEntry* peek(ItemId id) const;

  /// Lookup and mark most-recently-used. nullptr if absent.
  CacheEntry* get(ItemId id);

  /// Insert or overwrite; marks MRU; evicts LRU if over capacity.
  /// Returns the evicted item id, if any.
  std::optional<ItemId> put(const CacheEntry& entry);

  /// Update the validation stamp of every resident entry (after a report certifies
  /// the whole cache).
  void revalidate_all(SimTime consistency_point);

  /// Remove one entry. Returns true if it was present.
  bool erase(ItemId id);

  /// Drop everything (protocol fallback after losing report continuity).
  void clear();

  /// Ids of all resident entries (MRU-to-LRU order).
  std::vector<ItemId> resident() const;

  // Lifetime counters (monotonic).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }
  std::uint64_t clears() const { return clears_; }

  /// Count an invalidation (callers use erase(); this separates protocol-initiated
  /// invalidation from capacity eviction in the stats).
  void note_invalidation() { ++invalidations_; }

  /// Structural audit: size bound, index↔list agreement (which rules out
  /// duplicate ids), list linkage, slab free-chain conservation. Trips a
  /// WDC_CHECK on corruption; no-op when checks are compiled out.
  void audit() const;

 private:
  friend struct LruCacheTestPeer;  // white-box corruption hook for death tests

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Slab node of the intrusive recency list (front = MRU). Freed nodes are
  /// chained through `next`.
  struct Node {
    CacheEntry entry;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Full audits are amortised: one every kAuditPeriod mutations.
  static constexpr std::uint64_t kAuditPeriod = 64;

  std::uint32_t slot_of(ItemId id) const {
    return id < index_.size() ? index_[id] : kNil;
  }
  std::uint32_t acquire_node();
  void release_node(std::uint32_t n);
  void unlink(std::uint32_t n);
  void link_front(std::uint32_t n);
  void maybe_audit() const;

  std::size_t capacity_;
  std::vector<Node> nodes_;           ///< recycled slab; grown on demand
  std::vector<std::uint32_t> index_;  ///< item id → slab slot (kNil = absent)
  std::uint32_t head_ = kNil;         ///< MRU end
  std::uint32_t tail_ = kNil;         ///< LRU end
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t clears_ = 0;
  mutable std::uint64_t mutations_ = 0;
};

}  // namespace wdc

#endif  // WDC_CACHE_LRU_CACHE_HPP
