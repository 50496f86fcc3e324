#ifndef CEGRAPH_UTIL_CLASS_TABLE_H_
#define CEGRAPH_UTIL_CLASS_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cegraph::util {

/// The bounded per-query-class table behind obs::Scorecard and
/// learn::FeedbackStore: string key -> shared entry, with one
/// deterministic eviction rule.
///
/// Lookups take a shared lock and hand out a shared_ptr, so an entry stays
/// alive for a caller that is still updating it after it was evicted;
/// entries synchronize their own fields (atomics, per-entry mutexes). Only
/// the first insert of a *new* key takes the exclusive lock. Inserting
/// into a full table first evicts the entry with the fewest `hits`, ties
/// broken toward the lexicographically greatest key, so repeated runs
/// evict identically and a new key can never be its own victim. The
/// victim is released before its successor is allocated, so the memory
/// of a large entry is reused rather than held twice.
///
/// `Entry` must be constructible as Entry(std::string key, args...) and
/// expose a `std::atomic<uint64_t> hits` member.
template <typename Entry>
class ClassTable {
 public:
  using Ptr = std::shared_ptr<Entry>;
  /// Reports each entry as it is evicted. Runs under the exclusive lock,
  /// so what it updates stays consistent with the table's contents; it
  /// must not call back into the table.
  using EvictCallback = std::function<void(Entry&)>;

  /// `capacity` < 1 is raised to 1.
  explicit ClassTable(size_t capacity, EvictCallback on_evict = nullptr)
      : capacity_(capacity < 1 ? 1 : capacity),
        on_evict_(std::move(on_evict)) {}
  ClassTable(const ClassTable&) = delete;
  ClassTable& operator=(const ClassTable&) = delete;

  /// The entry under `key`, or nullptr.
  Ptr Find(std::string_view key) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second;
  }

  /// The entry under `key`, constructed from (key, args...) when absent.
  template <typename... Args>
  Ptr FindOrCreate(std::string_view key, Args&&... args) {
    if (Ptr hit = Find(key)) return hit;
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
    if (map_.size() >= capacity_) EvictOneLocked();
    Ptr entry =
        std::make_shared<Entry>(std::string(key), std::forward<Args>(args)...);
    map_.emplace(std::string(key), entry);
    return entry;
  }

  /// Every resident entry, copied out under the shared lock so callers
  /// can walk (and lock) entries without holding the table.
  std::vector<Ptr> Entries() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<Ptr> entries;
    entries.reserve(map_.size());
    for (const auto& [key, entry] : map_) entries.push_back(entry);
    return entries;
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return map_.size();
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  void Clear() {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    map_.clear();
  }

 private:
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Map =
      std::unordered_map<std::string, Ptr, StringHash, std::equal_to<>>;

  void EvictOneLocked() {
    auto victim = map_.end();
    uint64_t victim_hits = 0;
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      const uint64_t hits = it->second->hits.load(std::memory_order_relaxed);
      if (victim == map_.end() || hits < victim_hits ||
          (hits == victim_hits && it->first > victim->first)) {
        victim = it;
        victim_hits = hits;
      }
    }
    if (on_evict_) on_evict_(*victim->second);
    map_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t capacity_;
  const EvictCallback on_evict_;
  mutable std::shared_mutex mutex_;
  Map map_;
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cegraph::util

#endif  // CEGRAPH_UTIL_CLASS_TABLE_H_
