#pragma once
// Per-query-class accuracy scorecards: the serving-side view of the
// paper's central claim. Each truth-carrying estimate is attributed to
// its query class (isomorphism-canonical shape + label multiset, see
// QueryGraph::CanonicalCode) and folded into that class's *windowed*
// q-error distribution, under/over-estimate split, hit count and
// retained worst exemplar — the observation substrate an AQO-style
// feedback loop needs, and the drift tripwire an operator needs.
//
// Recording is designed for the estimate hot path: a shared-lock
// util::ClassTable lookup to a stable entry, then relaxed atomics and one
// windowed histogram record. Only the first sample of a *new* class (and
// the bounded-top-K eviction it may trigger) takes the exclusive lock.
//
// Drift: each class's baseline median is stamped from the live window
// at snapshot load / hot swap (or lazily, once the class has enough
// samples); when the windowed median later moves more than
// `drift_ratio`x away from the baseline, the class flips drifted and
// the callback fires once per (class, baseline stamp) — a median
// oscillating around the threshold cannot re-emit; the tripwire
// re-arms only at the next baseline re-stamp (journal event + gauge).

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/windowed.h"
#include "util/class_table.h"

namespace cegraph::obs {

struct ScorecardOptions {
  /// Bounded class table; inserting past the bound deterministically
  /// evicts the class with the fewest hits (ties: greatest key).
  size_t max_classes = 64;
  /// Per-class window ring — coarse slots keep a class under ~125 KB.
  WindowSpec window{10, 90};
  /// Windowed samples a class needs before a baseline is stamped or a
  /// drift verdict is computed.
  uint64_t drift_min_samples = 8;
  /// Windowed median further than this factor from the baseline (in
  /// either direction) counts as drift.
  double drift_ratio = 2.0;
};

/// The single worst (highest q-error) sample a class has seen.
struct ScorecardExemplar {
  double qerror = 0;
  std::string line;  ///< the query line as received
  double estimate = 0;
  double truth = 0;
  std::string estimator;
};

struct ScorecardClassReport {
  std::string key;      ///< canonical code + label multiset (identity)
  std::string display;  ///< template name, or the first-seen pattern
  uint64_t hits = 0;
  uint64_t under = 0;  ///< estimate < truth
  uint64_t over = 0;   ///< estimate > truth
  QuantileSummary qerror;  ///< windowed
  double baseline_median = 0;  ///< 0 = not stamped yet
  bool drifted = false;
  ScorecardExemplar worst;
};

/// One usable (finite, truth-carrying) estimator result.
struct ScorecardSample {
  std::string_view class_key;
  std::string_view display;
  std::string_view line;
  std::string_view estimator;
  double qerror = 0;
  double estimate = 0;
  double truth = 0;
};

class Scorecard {
 public:
  using DriftCallback = std::function<void(const ScorecardClassReport&)>;

  explicit Scorecard(ScorecardOptions options = {});
  Scorecard(const Scorecard&) = delete;
  Scorecard& operator=(const Scorecard&) = delete;

  void Record(const ScorecardSample& sample) {
    RecordAt(sample, WindowedHistogram::NowSec());
  }
  void RecordAt(const ScorecardSample& sample, int64_t now_sec);

  /// Re-stamps every class's drift baseline from its current window
  /// (classes still short of drift_min_samples go back to lazy
  /// stamping) and clears drift verdicts. Call at snapshot load and
  /// hot swap: the estimates just changed regime, so "drift" must be
  /// measured against the new one.
  void StampBaseline() { StampBaselineAt(WindowedHistogram::NowSec()); }
  void StampBaselineAt(int64_t now_sec);

  /// Fired once per (class, baseline stamp) on the flip into drift
  /// (never on recovery, never again until StampBaseline re-arms the
  /// class). Called from the recording thread; keep it cheap (a
  /// journal Emit is).
  void SetDriftCallback(DriftCallback callback);

  size_t class_count() const;
  size_t drifted_classes() const;
  bool AnyDrift() const { return drifted_classes() > 0; }
  uint64_t evictions() const;

  /// Every class, windowed over `window_seconds`, sorted by hits
  /// descending (ties: key ascending) — a deterministic order for the
  /// wire, the client table and the tests.
  std::vector<ScorecardClassReport> Report(int64_t window_seconds) const {
    return ReportAt(window_seconds, WindowedHistogram::NowSec());
  }
  std::vector<ScorecardClassReport> ReportAt(int64_t window_seconds,
                                             int64_t now_sec) const;

 private:
  struct Entry;

  void EvaluateDrift(Entry& entry, int64_t now_sec);
  ScorecardClassReport BuildReport(const Entry& entry,
                                   int64_t window_seconds,
                                   int64_t now_sec) const;

  ScorecardOptions options_;
  util::ClassTable<Entry> classes_;
  std::atomic<int64_t> drifted_count_{0};

  std::mutex callback_mutex_;
  DriftCallback drift_callback_;
};

}  // namespace cegraph::obs
