#include "obs/scorecard.h"

#include <algorithm>

#include "harness/qerror.h"

namespace cegraph::obs {

struct Scorecard::Entry {
  std::string key;
  std::string display;
  WindowedHistogram qerror;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> under{0};
  std::atomic<uint64_t> over{0};
  std::atomic<double> baseline{0};  // 0 = lazily stamped on first window
  std::atomic<bool> drifted{false};
  /// Latches the drift callback per baseline stamp: set on the first
  /// drift flip, re-armed only by StampBaselineAt. Without it, a median
  /// oscillating around the threshold would re-emit a journal event on
  /// every false->true flip of `drifted` against the same baseline.
  std::atomic<bool> drift_fired{false};
  std::atomic<double> worst_q{0};  // pre-check so the lock is rare
  mutable std::mutex worst_mutex;
  ScorecardExemplar worst;  // guarded by worst_mutex

  Entry(std::string k, std::string_view d, const WindowSpec& spec)
      : key(std::move(k)), display(d), qerror(spec) {}
};

Scorecard::Scorecard(ScorecardOptions options)
    : options_(options),
      // An evicted drifted class leaves the gauge. The exchange makes this
      // and a concurrent StampBaselineAt decrement at most once between
      // them.
      classes_(options.max_classes, [this](Entry& evicted) {
        if (evicted.drifted.exchange(false, std::memory_order_relaxed)) {
          drifted_count_.fetch_add(-1, std::memory_order_relaxed);
        }
      }) {
  if (options_.drift_ratio < 1.0) options_.drift_ratio = 1.0;
}

void Scorecard::SetDriftCallback(DriftCallback callback) {
  std::lock_guard<std::mutex> lock(callback_mutex_);
  drift_callback_ = std::move(callback);
}

size_t Scorecard::class_count() const { return classes_.size(); }

uint64_t Scorecard::evictions() const { return classes_.evictions(); }

size_t Scorecard::drifted_classes() const {
  const int64_t n = drifted_count_.load(std::memory_order_relaxed);
  return n > 0 ? static_cast<size_t>(n) : 0;
}

void Scorecard::RecordAt(const ScorecardSample& sample, int64_t now_sec) {
  if (!harness::UsableQError(sample.qerror)) return;
  const std::shared_ptr<Entry> entry = classes_.FindOrCreate(
      sample.class_key, sample.display.empty() ? sample.line : sample.display,
      options_.window);
  entry->qerror.RecordAt(sample.qerror, now_sec);
  const uint64_t hit = entry->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (sample.estimate < sample.truth) {
    entry->under.fetch_add(1, std::memory_order_relaxed);
  } else if (sample.estimate > sample.truth) {
    entry->over.fetch_add(1, std::memory_order_relaxed);
  }
  if (sample.qerror > entry->worst_q.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(entry->worst_mutex);
    if (sample.qerror > entry->worst.qerror) {
      entry->worst.qerror = sample.qerror;
      entry->worst.line = std::string(sample.line);
      entry->worst.estimate = sample.estimate;
      entry->worst.truth = sample.truth;
      entry->worst.estimator = std::string(sample.estimator);
      entry->worst_q.store(sample.qerror, std::memory_order_relaxed);
    }
  }
  // Drift is a window-merge + quantile walk — too heavy per sample, so
  // re-evaluate every 8th hit.
  if ((hit & 7u) == 0) EvaluateDrift(*entry, now_sec);
}

void Scorecard::EvaluateDrift(Entry& entry, int64_t now_sec) {
  const HistogramSnapshot window =
      entry.qerror.SnapshotWindowAt(options_.window.span_seconds(), now_sec);
  if (window.count < options_.drift_min_samples) return;
  const double median = window.Quantile(0.5);
  if (!(median > 0)) return;
  const double baseline = entry.baseline.load(std::memory_order_relaxed);
  if (!(baseline > 0)) {
    // No baseline yet (boot, or the class appeared after the last
    // stamp): the first full-enough window becomes the baseline.
    double expected = baseline;
    entry.baseline.compare_exchange_strong(expected, median,
                                           std::memory_order_relaxed);
    return;
  }
  const double ratio =
      median > baseline ? median / baseline : baseline / median;
  const bool drifted = ratio > options_.drift_ratio;
  bool was = entry.drifted.load(std::memory_order_relaxed);
  if (drifted == was) return;
  if (!entry.drifted.compare_exchange_strong(was, drifted,
                                             std::memory_order_relaxed)) {
    return;  // another thread flipped it first
  }
  drifted_count_.fetch_add(drifted ? 1 : -1, std::memory_order_relaxed);
  if (!drifted) return;
  if (entry.drift_fired.exchange(true, std::memory_order_relaxed)) {
    return;  // already fired against this baseline stamp
  }
  DriftCallback callback;
  {
    std::lock_guard<std::mutex> lock(callback_mutex_);
    callback = drift_callback_;
  }
  if (callback) {
    callback(BuildReport(entry, options_.window.span_seconds(), now_sec));
  }
}

void Scorecard::StampBaselineAt(int64_t now_sec) {
  for (const auto& entry : classes_.Entries()) {
    const HistogramSnapshot window = entry->qerror.SnapshotWindowAt(
        options_.window.span_seconds(), now_sec);
    double baseline = 0;
    if (window.count >= options_.drift_min_samples) {
      const double median = window.Quantile(0.5);
      if (median > 0) baseline = median;
    }
    entry->baseline.store(baseline, std::memory_order_relaxed);
    if (entry->drifted.exchange(false, std::memory_order_relaxed)) {
      drifted_count_.fetch_add(-1, std::memory_order_relaxed);
    }
    // New baseline regime: the one-shot drift tripwire re-arms.
    entry->drift_fired.store(false, std::memory_order_relaxed);
  }
}

ScorecardClassReport Scorecard::BuildReport(const Entry& entry,
                                            int64_t window_seconds,
                                            int64_t now_sec) const {
  ScorecardClassReport report;
  report.key = entry.key;
  report.display = entry.display;
  report.hits = entry.hits.load(std::memory_order_relaxed);
  report.under = entry.under.load(std::memory_order_relaxed);
  report.over = entry.over.load(std::memory_order_relaxed);
  report.qerror =
      entry.qerror.SnapshotWindowAt(window_seconds, now_sec).Summary();
  report.baseline_median = entry.baseline.load(std::memory_order_relaxed);
  report.drifted = entry.drifted.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(entry.worst_mutex);
    report.worst = entry.worst;
  }
  return report;
}

std::vector<ScorecardClassReport> Scorecard::ReportAt(int64_t window_seconds,
                                                      int64_t now_sec) const {
  const auto entries = classes_.Entries();
  std::vector<ScorecardClassReport> reports;
  reports.reserve(entries.size());
  for (const auto& entry : entries) {
    reports.push_back(BuildReport(*entry, window_seconds, now_sec));
  }
  std::sort(reports.begin(), reports.end(),
            [](const ScorecardClassReport& a, const ScorecardClassReport& b) {
              if (a.hits != b.hits) return a.hits > b.hits;
              return a.key < b.key;
            });
  return reports;
}

}  // namespace cegraph::obs
