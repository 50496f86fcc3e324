#include "learn/feedback_store.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "harness/qerror.h"
#include "util/serde.h"

namespace cegraph::learn {

namespace {

/// Payload format version (bump on layout change; older payloads are
/// discarded, never mis-parsed — corrections are derived data).
constexpr uint32_t kFeedbackFormatVersion = 1;

}  // namespace

struct FeedbackStore::Entry {
  std::string key;
  std::string display;
  std::atomic<uint64_t> hits{0};
  std::atomic<double> correction{1.0};
  std::atomic<bool> active{false};

  /// The log(truth/estimate) ring, oldest -> newest, guarded by
  /// ring_mutex (recording path only; serve-time lookups never take it).
  mutable std::mutex ring_mutex;
  std::vector<double> ratios;

  Entry(std::string k, std::string_view d) : key(std::move(k)), display(d) {}
};

FeedbackStore::FeedbackStore(FeedbackOptions options)
    : options_(options), classes_(options.max_classes) {
  if (options_.max_classes < 1) options_.max_classes = 1;
  if (options_.ring_capacity < 1) options_.ring_capacity = 1;
  if (options_.min_samples < 1) options_.min_samples = 1;
  if (!(options_.decay > 0) || options_.decay > 1.0) options_.decay = 1.0;
  if (!(options_.max_correction >= 1.0)) options_.max_correction = 1.0;
}

std::string FeedbackStore::ClassKey(std::string_view estimator,
                                    std::string_view class_code) {
  std::string key;
  key.reserve(estimator.size() + 1 + class_code.size());
  key.append(estimator);
  key.push_back('|');
  key.append(class_code);
  return key;
}

double FeedbackStore::ComputeCorrection(
    const std::vector<double>& ratios) const {
  if (ratios.empty()) return 1.0;
  // Weighted median of the ratios, weight decay^age (age 0 = newest).
  // In one dimension the geometric median *is* the median, which is what
  // makes this robust: one poisoned truth moves the correction by at
  // most one rank, never proportionally.
  std::vector<std::pair<double, double>> weighted;  // (ratio, weight)
  weighted.reserve(ratios.size());
  double total = 0;
  double weight = 1.0;
  for (size_t i = ratios.size(); i-- > 0;) {  // newest first
    weighted.emplace_back(ratios[i], weight);
    total += weight;
    weight *= options_.decay;
  }
  std::sort(weighted.begin(), weighted.end());
  double cumulative = 0;
  double median = weighted.back().first;
  for (const auto& [ratio, w] : weighted) {
    cumulative += w;
    if (cumulative >= total / 2) {
      median = ratio;
      break;
    }
  }
  const double correction = std::exp(median);
  const double cap = options_.max_correction;
  if (!(correction > 0) || !std::isfinite(correction)) return 1.0;
  return std::min(cap, std::max(1.0 / cap, correction));
}

std::optional<FeedbackUpdate> FeedbackStore::Record(std::string_view key,
                                                    std::string_view display,
                                                    double estimate,
                                                    double truth) {
  if (!harness::UsableQError(estimate, truth)) return std::nullopt;
  const double ratio = std::log(truth / estimate);
  if (!std::isfinite(ratio)) return std::nullopt;

  const std::shared_ptr<Entry> entry = classes_.FindOrCreate(key, display);
  entry->hits.fetch_add(1, std::memory_order_relaxed);

  double correction;
  uint64_t samples;
  bool activated = false;
  bool moved = false;
  {
    std::lock_guard<std::mutex> lock(entry->ring_mutex);
    // Kept oldest -> newest so the decay weights and serialization read
    // straight through; the O(capacity) shift is bounded at 64 doubles
    // and only runs on the off-hot-path recording thread.
    if (entry->ratios.size() >= options_.ring_capacity) {
      entry->ratios.erase(entry->ratios.begin());
    }
    entry->ratios.push_back(ratio);
    samples = entry->ratios.size();
    correction = ComputeCorrection(entry->ratios);
    const double previous =
        entry->correction.load(std::memory_order_relaxed);
    const bool was_active = entry->active.load(std::memory_order_relaxed);
    const bool now_active = samples >= options_.min_samples;
    entry->correction.store(correction, std::memory_order_relaxed);
    entry->active.store(now_active, std::memory_order_relaxed);
    activated = now_active && !was_active;
    if (now_active && was_active && previous > 0) {
      const double shift = correction > previous ? correction / previous
                                                 : previous / correction;
      moved = shift > 1.25;
    }
  }
  if (!activated && !moved) return std::nullopt;
  FeedbackUpdate update;
  update.key = entry->key;
  update.display = entry->display;
  update.correction = correction;
  update.samples = samples;
  update.activated = activated;
  return update;
}

double FeedbackStore::CorrectionFor(std::string_view key) const {
  const std::shared_ptr<Entry> entry = classes_.Find(key);
  if (entry == nullptr || !entry->active.load(std::memory_order_relaxed)) {
    return 1.0;
  }
  return entry->correction.load(std::memory_order_relaxed);
}

std::string FeedbackStore::Serialize() const {
  // Walk each ring under its own mutex — the exact locking the recording
  // path uses, so serialization can run against live traffic.
  std::vector<std::shared_ptr<Entry>> entries = classes_.Entries();
  std::sort(entries.begin(), entries.end(),
            [](const std::shared_ptr<Entry>& a,
               const std::shared_ptr<Entry>& b) { return a->key < b->key; });

  util::serde::Writer writer;
  writer.WriteU32(kFeedbackFormatVersion);
  writer.WriteU64(stamp());
  writer.WriteU64(entries.size());
  for (const auto& entry : entries) {
    writer.WriteString(entry->key);
    writer.WriteString(entry->display);
    writer.WriteU64(entry->hits.load(std::memory_order_relaxed));
    std::lock_guard<std::mutex> lock(entry->ring_mutex);
    writer.WriteU64(entry->ratios.size());
    for (const double ratio : entry->ratios) writer.WriteDouble(ratio);
  }
  return writer.TakeBuffer();
}

util::Status FeedbackStore::Deserialize(std::string_view bytes,
                                        uint64_t expected_stamp,
                                        bool* discarded) {
  if (discarded != nullptr) *discarded = false;
  util::serde::Reader reader(bytes);
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kFeedbackFormatVersion) {
    // Unknown layout: corrections are derived data, so skipping the
    // payload (and re-learning) beats failing the whole snapshot load.
    if (discarded != nullptr) *discarded = true;
    return util::Status();
  }
  auto payload_stamp = reader.ReadU64();
  if (!payload_stamp.ok()) return payload_stamp.status();
  if (*payload_stamp != expected_stamp) {
    // The drift guard: these corrections were learned against a
    // different graph; applying them would be systematically wrong.
    if (discarded != nullptr) *discarded = true;
    return util::Status();
  }
  auto count = reader.ReadU64();
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto key = reader.ReadString();
    if (!key.ok()) return key.status();
    auto display = reader.ReadString();
    if (!display.ok()) return display.status();
    auto hits = reader.ReadU64();
    if (!hits.ok()) return hits.status();
    auto samples = reader.ReadU64();
    if (!samples.ok()) return samples.status();
    std::vector<double> ratios;
    ratios.reserve(std::min<uint64_t>(*samples, options_.ring_capacity));
    for (uint64_t s = 0; s < *samples; ++s) {
      auto ratio = reader.ReadDouble();
      if (!ratio.ok()) return ratio.status();
      ratios.push_back(*ratio);
    }
    // A payload written under a larger ring keeps its newest suffix.
    if (ratios.size() > options_.ring_capacity) {
      ratios.erase(ratios.begin(),
                   ratios.end() - static_cast<ptrdiff_t>(
                                      options_.ring_capacity));
    }

    // Existing entries win: live learning is newer than the snapshot.
    if (classes_.Find(*key) != nullptr) continue;
    const std::shared_ptr<Entry> entry = classes_.FindOrCreate(*key, *display);
    std::lock_guard<std::mutex> lock(entry->ring_mutex);
    if (!entry->ratios.empty()) continue;  // raced a live recording
    entry->ratios = std::move(ratios);
    entry->hits.store(*hits, std::memory_order_relaxed);
    entry->correction.store(ComputeCorrection(entry->ratios),
                            std::memory_order_relaxed);
    entry->active.store(entry->ratios.size() >= options_.min_samples,
                        std::memory_order_relaxed);
  }
  SetStamp(expected_stamp);
  return util::Status();
}

std::vector<FeedbackClassReport> FeedbackStore::Report() const {
  const auto entries = classes_.Entries();
  std::vector<FeedbackClassReport> reports;
  reports.reserve(entries.size());
  for (const auto& entry : entries) {
    FeedbackClassReport report;
    report.key = entry->key;
    report.display = entry->display;
    report.hits = entry->hits.load(std::memory_order_relaxed);
    report.correction = entry->correction.load(std::memory_order_relaxed);
    report.active = entry->active.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(entry->ring_mutex);
      report.samples = entry->ratios.size();
    }
    reports.push_back(std::move(report));
  }
  std::sort(reports.begin(), reports.end(),
            [](const FeedbackClassReport& a, const FeedbackClassReport& b) {
              if (a.hits != b.hits) return a.hits > b.hits;
              return a.key < b.key;
            });
  return reports;
}

size_t FeedbackStore::class_count() const { return classes_.size(); }

uint64_t FeedbackStore::evictions() const { return classes_.evictions(); }

size_t FeedbackStore::active_count() const {
  size_t active = 0;
  for (const auto& entry : classes_.Entries()) {
    if (entry->active.load(std::memory_order_relaxed)) ++active;
  }
  return active;
}

void FeedbackStore::Clear() { classes_.Clear(); }

uint64_t FeedbackStore::CountSerializedClasses(std::string_view bytes) {
  util::serde::Reader reader(bytes);
  auto version = reader.ReadU32();
  if (!version.ok() || *version != kFeedbackFormatVersion) return 0;
  if (!reader.ReadU64().ok()) return 0;  // stamp
  auto count = reader.ReadU64();
  return count.ok() ? *count : 0;
}

uint64_t StampFingerprint(uint32_t num_vertices, uint32_t num_labels,
                          uint32_t num_vertex_labels, uint64_t num_edges,
                          uint64_t edge_hash) {
  // FNV-1a over the five fields, so any graph change (and only a graph
  // change) rotates the stamp.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(num_vertices);
  mix(num_labels);
  mix(num_vertex_labels);
  mix(num_edges);
  mix(edge_hash);
  return h;
}

}  // namespace cegraph::learn
