#include "engine/ceg_cache.h"

#include <algorithm>
#include <utility>

namespace cegraph::engine {

namespace {

std::string CacheKey(const query::QueryGraph& q, int h, OptimisticCeg kind,
                     const ceg::CegOOptions& options) {
  std::string key = q.CanonicalCode();
  key += '|';
  key += kind == OptimisticCeg::kCegOcr ? 'R' : 'O';
  key += static_cast<char>('0' + h);
  key += options.size_h_numerators ? '1' : '0';
  key += options.early_cycle_closing ? '1' : '0';
  return key;
}

}  // namespace

util::StatusOr<std::shared_ptr<const CachedCeg>> CegCache::GetOrBuild(
    const query::QueryGraph& q, const stats::MarkovTable& markov,
    OptimisticCeg kind, const stats::CycleClosingRates* rates,
    const ceg::CegOOptions& options) {
  const std::string key = CacheKey(q, markov.h(), kind, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.ceg;
    }
  }

  // Build outside the lock; two threads racing on the same cold class
  // build identical entries and the second insert is dropped. Only the
  // aggregates are kept: the CEG is freed when this call returns.
  OptimisticSpec spec;
  spec.ceg_kind = kind;
  spec.ceg_options = options;
  auto built = OptimisticEstimator(markov, spec, rates).BuildCeg(q);
  if (!built.ok()) return built.status();
  auto aggregates = built->ceg.ComputeAggregates();

  auto entry = std::make_shared<CachedCeg>();
  if (aggregates.ok()) {
    entry->aggregates_ok = true;
    entry->aggregates = std::move(aggregates).value();
  } else {
    entry->aggregates_status = aggregates.status();
  }

  // The invalidation index: distinct labels of the query, sorted.
  Entry cache_entry;
  cache_entry.ceg = std::move(entry);
  cache_entry.labels.reserve(q.num_edges());
  for (const query::QueryEdge& e : q.edges()) {
    cache_entry.labels.push_back(e.label);
  }
  std::sort(cache_entry.labels.begin(), cache_entry.labels.end());
  cache_entry.labels.erase(
      std::unique(cache_entry.labels.begin(), cache_entry.labels.end()),
      cache_entry.labels.end());
  cache_entry.ocr = kind == OptimisticCeg::kCegOcr;

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.emplace(key, std::move(cache_entry));
  // Count under the lock so misses() is exactly the number of distinct
  // entries ever inserted, independent of thread interleavings; a racer
  // whose redundant build lost the insert counts as a hit.
  if (inserted) {
    misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second.ceg;
}

bool CegCache::Entry::Affected(const std::vector<bool>& changed_labels,
                               bool evict_all_ocr) const {
  if (evict_all_ocr && ocr) return true;
  return std::any_of(labels.begin(), labels.end(), [&](graph::Label l) {
    return l < changed_labels.size() && changed_labels[l];
  });
}

size_t CegCache::EvictAffected(const std::vector<bool>& changed_labels,
                               bool evict_all_ocr) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t erased = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.Affected(changed_labels, evict_all_ocr)) {
      it = entries_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  evictions_.fetch_add(erased, std::memory_order_relaxed);
  return erased;
}

size_t CegCache::CarryFrom(const CegCache& src,
                           const std::vector<bool>& changed_labels,
                           bool evict_all_ocr) {
  // Two distinct caches: the source belongs to the serving state being
  // forked, this one to the fork under construction (not yet published),
  // so this pair-lock cannot deadlock against another CarryFrom.
  std::scoped_lock lock(src.mutex_, mutex_);
  size_t carried = 0;
  size_t skipped = 0;
  for (const auto& [key, entry] : src.entries_) {
    if (entry.Affected(changed_labels, evict_all_ocr)) {
      ++skipped;
      continue;
    }
    entries_.emplace(key, entry);
    ++carried;
  }
  evictions_.fetch_add(skipped, std::memory_order_relaxed);
  return carried;
}

size_t CegCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void CegCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace cegraph::engine
