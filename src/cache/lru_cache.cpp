#include "cache/lru_cache.hpp"

#include <stdexcept>

namespace wdc {

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("LruCache: capacity > 0");
}

std::uint32_t LruCache::acquire_node() {
  if (free_head_ != kNil) {
    const std::uint32_t n = free_head_;
    free_head_ = nodes_[n].next;
    return n;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void LruCache::release_node(std::uint32_t n) {
  nodes_[n].entry = CacheEntry{};
  nodes_[n].prev = kNil;
  nodes_[n].next = free_head_;
  free_head_ = n;
}

void LruCache::unlink(std::uint32_t n) {
  Node& node = nodes_[n];
  if (node.prev != kNil) nodes_[node.prev].next = node.next;
  else head_ = node.next;
  if (node.next != kNil) nodes_[node.next].prev = node.prev;
  else tail_ = node.prev;
  node.prev = kNil;
  node.next = kNil;
}

void LruCache::link_front(std::uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) nodes_[head_].prev = n;
  head_ = n;
  if (tail_ == kNil) tail_ = n;
}

const CacheEntry* LruCache::peek(ItemId id) const {
  const std::uint32_t n = slot_of(id);
  return n == kNil ? nullptr : &nodes_[n].entry;
}

CacheEntry* LruCache::get(ItemId id) {
  const std::uint32_t n = slot_of(id);
  if (n == kNil) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  if (n != head_) {
    unlink(n);
    link_front(n);
  }
  return &nodes_[n].entry;
}

std::optional<ItemId> LruCache::put(const CacheEntry& entry) {
  if (entry.id == kInvalidItem) throw std::invalid_argument("LruCache::put: bad id");
  if (const std::uint32_t n = slot_of(entry.id); n != kNil) {
    nodes_[n].entry = entry;
    if (n != head_) {
      unlink(n);
      link_front(n);
    }
    maybe_audit();
    return std::nullopt;
  }
  const std::uint32_t n = acquire_node();
  nodes_[n].entry = entry;
  link_front(n);
  if (entry.id >= index_.size()) index_.resize(entry.id + 1, kNil);
  index_[entry.id] = n;
  ++size_;
  if (size_ > capacity_) {
    const std::uint32_t victim_node = tail_;
    const ItemId victim = nodes_[victim_node].entry.id;
    WDC_ASSERT(victim != entry.id, "new entry ", entry.id,
               " became the LRU victim immediately");
    unlink(victim_node);
    index_[victim] = kNil;
    release_node(victim_node);
    --size_;
    ++evictions_;
    maybe_audit();
    return victim;
  }
  maybe_audit();
  return std::nullopt;
}

void LruCache::revalidate_all(SimTime consistency_point) {
  // `validated_at` is the *latest* certifying point: a report stamped behind an
  // entry's current certification (e.g. a digest delayed behind a full report
  // in the MAC queue) must not rewind it.
  for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next)
    if (consistency_point > nodes_[n].entry.validated_at)
      nodes_[n].entry.validated_at = consistency_point;
}

bool LruCache::erase(ItemId id) {
  const std::uint32_t n = slot_of(id);
  if (n == kNil) return false;
  unlink(n);
  index_[id] = kNil;
  release_node(n);
  --size_;
  maybe_audit();
  return true;
}

void LruCache::clear() {
  if (size_ != 0) ++clears_;
  while (head_ != kNil) {
    const std::uint32_t n = head_;
    index_[nodes_[n].entry.id] = kNil;
    unlink(n);
    release_node(n);
  }
  size_ = 0;
  maybe_audit();
}

std::vector<ItemId> LruCache::resident() const {
  std::vector<ItemId> out;
  out.reserve(size_);
  for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next)
    out.push_back(nodes_[n].entry.id);
  return out;
}

void LruCache::maybe_audit() const {
#if WDC_CHECKS_ENABLED
  if ((++mutations_ % kAuditPeriod) == 0) audit();
#endif
}

void LruCache::audit() const {
#if WDC_CHECKS_ENABLED
  WDC_CHECK(size_ <= capacity_, "cache holds ", size_,
            " entries over its capacity ", capacity_);
  // Walk the recency list: linkage must be consistent, every node's id must
  // index back to it (rules out duplicate ids), and the walk must visit
  // exactly size_ nodes.
  std::size_t walked = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) {
    WDC_CHECK(n < nodes_.size(), "recency list references slab slot ", n,
              " outside the slab");
    WDC_CHECK(nodes_[n].prev == prev, "recency list back-link broken at slot ",
              n);
    const ItemId id = nodes_[n].entry.id;
    WDC_CHECK(id != kInvalidItem, "sentinel item id resident in the cache");
    WDC_CHECK(id < index_.size() && index_[id] == n, "index entry ", id,
              " does not resolve to the node carrying it (slot ", n, ")");
    WDC_CHECK(++walked <= size_, "recency list longer than size ", size_);
    prev = n;
  }
  WDC_CHECK(walked == size_, "recency list holds ", walked,
            " entries but size is ", size_);
  WDC_CHECK(tail_ == prev, "tail does not terminate the recency list");
  // Free-chain conservation: free + resident == slab size.
  std::size_t free_count = 0;
  for (std::uint32_t n = free_head_; n != kNil; n = nodes_[n].next) {
    WDC_CHECK(n < nodes_.size(), "free chain references slab slot ", n,
              " outside the slab");
    WDC_CHECK(++free_count <= nodes_.size(), "free chain cycle detected");
  }
  WDC_CHECK(free_count + size_ == nodes_.size(), "slab of ", nodes_.size(),
            " nodes but free=", free_count, " + resident=", size_);
  // Index entries must point at resident nodes carrying that id.
  for (std::size_t id = 0; id < index_.size(); ++id) {
    const std::uint32_t n = index_[id];
    if (n == kNil) continue;
    WDC_CHECK(n < nodes_.size(), "index entry ", id, " references slab slot ",
              n, " outside the slab");
    WDC_CHECK(nodes_[n].entry.id == id, "index entry ", id,
              " resolves to a node carrying id ", nodes_[n].entry.id);
  }
#endif
}

}  // namespace wdc
