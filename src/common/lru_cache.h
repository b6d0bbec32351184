/**
 * @file
 * Intrusive-free LRU cache used by the planning service's result and
 * model caches (DESIGN.md §14).
 *
 * A bounded map with least-recently-used eviction: get() and put()
 * both promote the entry to most-recently-used, so eviction order
 * follows access order, not insertion order. Not thread-safe — the
 * service's deterministic event loop is single-threaded.
 */

#ifndef DOPPIO_COMMON_LRU_CACHE_H
#define DOPPIO_COMMON_LRU_CACHE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace doppio::common {

/** Bounded key/value map with LRU eviction. */
template <typename Key, typename Value>
class LruCache
{
  public:
    /** @param capacity maximum entries; must be positive. */
    explicit LruCache(std::size_t capacity) : capacity_(capacity)
    {
        if (capacity == 0)
            fatal("LruCache: capacity must be positive");
    }

    /**
     * @return pointer to the cached value (promoted to MRU), or
     * nullptr on a miss. The pointer stays valid until the entry is
     * evicted or erased.
     */
    Value *
    get(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end()) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /** @return the value without promoting it, or nullptr. */
    const Value *
    peek(const Key &key) const
    {
        const auto it = index_.find(key);
        return it == index_.end() ? nullptr : &it->second->second;
    }

    /**
     * Insert or overwrite @p key (either way the entry becomes MRU),
     * evicting the LRU entry when the cache is full.
     */
    void
    put(const Key &key, Value value)
    {
        const auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            order_.splice(order_.begin(), order_, it->second);
            return;
        }
        if (order_.size() >= capacity_) {
            index_.erase(order_.back().first);
            order_.pop_back();
            ++evictions_;
        }
        order_.emplace_front(key, std::move(value));
        index_.emplace(key, order_.begin());
    }

    /** @return true when an entry was removed. */
    bool
    erase(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return false;
        order_.erase(it->second);
        index_.erase(it);
        return true;
    }

    bool contains(const Key &key) const { return index_.count(key) > 0; }
    std::size_t size() const { return order_.size(); }
    std::size_t capacity() const { return capacity_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    void
    clear()
    {
        order_.clear();
        index_.clear();
    }

    /** @return keys from most- to least-recently used (for tests). */
    std::vector<Key>
    keysMruToLru() const
    {
        std::vector<Key> keys;
        keys.reserve(order_.size());
        for (const auto &entry : order_)
            keys.push_back(entry.first);
        return keys;
    }

  private:
    std::size_t capacity_;
    /// MRU at front, LRU at back.
    std::list<std::pair<Key, Value>> order_;
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator>
        index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace doppio::common

#endif // DOPPIO_COMMON_LRU_CACHE_H
