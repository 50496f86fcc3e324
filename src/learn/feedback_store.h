#ifndef CEGRAPH_LEARN_FEEDBACK_STORE_H_
#define CEGRAPH_LEARN_FEEDBACK_STORE_H_

// The learned-feedback layer: closing the estimate -> truth loop the way
// postgres AQO does, but over the CEG stack's query classes. Every
// truth-carrying request yields (estimate, truth) pairs per estimator;
// the FeedbackStore accumulates them per *query class* — estimator name
// + isomorphism-canonical shape (QueryGraph::CanonicalCode) + sorted
// label multiset, the same classing key the obs::Scorecard uses — and
// learns a per-class multiplicative correction factor.
//
// The correction is the exponential of the decay-weighted median of the
// observed log(truth / estimate) ratios (the 1-D geometric median, so
// single outliers cannot drag it), retained in a small per-class ring.
// A class only *applies* its correction once it has accumulated
// `min_samples` ratios (the confidence gate); below that the store
// answers 1.0 and the estimate serves raw. Exponential decay weights
// newer observations higher, so a shifting workload re-learns instead
// of averaging across regimes.
//
// The table is a util::ClassTable, as in the scorecard: inserting past
// `max_classes` deterministically evicts the class with the fewest hits
// (ties break toward the greatest key). Lookup (the serve-time path) is a
// shared-lock hash find plus one relaxed atomic load; recording takes
// only the class's own mutex and runs off the request hot path.
//
// Persistence: Serialize() emits a deterministic, key-sorted payload of
// the raw log-ratio rings (not the derived corrections), stamped with a
// 64-bit mix of the base-graph fingerprint. Deserialize() recomputes
// every correction from the stored ratios — doubles travel as IEEE-754
// bit patterns, so a save/load round trip reproduces bit-identical
// corrections — and *discards* the payload wholesale when its stamp no
// longer matches the loading context's graph (the drift guard: learned
// corrections are only meaningful against the graph that produced the
// truths).

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/class_table.h"
#include "util/status.h"

namespace cegraph::learn {

struct FeedbackOptions {
  /// Bounded class table; inserting past the bound deterministically
  /// evicts the class with the fewest hits (ties: greatest key).
  size_t max_classes = 256;
  /// Log-ratio observations retained per class (newest wins once full).
  size_t ring_capacity = 64;
  /// Confidence gate: ratios a class needs before its correction is
  /// applied at serve time. Below the gate CorrectionFor answers 1.0.
  uint64_t min_samples = 8;
  /// Exponential decay per observation of age: the weight of the k-th
  /// newest ratio is decay^k in the weighted median. 1.0 = no decay.
  double decay = 0.9;
  /// Corrections are clamped into [1/max_correction, max_correction] —
  /// a safety rail against a poisoned truth stream.
  double max_correction = 1e6;
};

/// One class's learned state, for the wire table / client / tests.
struct FeedbackClassReport {
  std::string key;      ///< estimator|canonical-code|label-multiset
  std::string display;  ///< template name or first-seen pattern
  uint64_t hits = 0;    ///< recorded observations (lifetime)
  uint64_t samples = 0; ///< ratios currently in the ring
  double correction = 1.0;
  bool active = false;  ///< past the confidence gate
};

/// What one Record() changed, for the journal `correction_update`
/// event. Only returned when the update is *reportable*: the class just
/// crossed the confidence gate, or an active correction moved by more
/// than 25% — so a stable class cannot spam the journal per sample.
struct FeedbackUpdate {
  std::string key;
  std::string display;
  double correction = 1.0;
  uint64_t samples = 0;
  bool activated = false;  ///< this update crossed the gate
};

class FeedbackStore {
 public:
  explicit FeedbackStore(FeedbackOptions options = {});
  FeedbackStore(const FeedbackStore&) = delete;
  FeedbackStore& operator=(const FeedbackStore&) = delete;

  /// The store's class key: estimator name + '|' + query-class code
  /// (CanonicalCode + '|' + sorted label multiset, as built by the
  /// service). Corrections are per estimator — each one is biased its
  /// own way on the same class.
  static std::string ClassKey(std::string_view estimator,
                              std::string_view class_code);

  /// Folds one usable (truth > 0, finite positive estimate) observation
  /// into the class: pushes log(truth / estimate) into the ring and
  /// recomputes the decay-weighted median correction. The caller must
  /// pre-filter with harness::UsableQError — a non-usable pair is
  /// silently dropped here as the last line of defense. Returns a
  /// FeedbackUpdate only when the change is journal-worthy (gate
  /// crossing, or an active correction moving > 25%).
  std::optional<FeedbackUpdate> Record(std::string_view key,
                                       std::string_view display,
                                       double estimate, double truth);

  /// The multiplicative correction to apply to `key`'s raw estimate:
  /// the learned factor when the class exists and has passed the
  /// confidence gate, 1.0 otherwise. Shared-lock find + relaxed load.
  double CorrectionFor(std::string_view key) const;

  /// The base-graph stamp the stored corrections were learned against
  /// (a StampFingerprint mix). 0 = never stamped.
  uint64_t stamp() const { return stamp_.load(std::memory_order_relaxed); }
  void SetStamp(uint64_t stamp) {
    stamp_.store(stamp, std::memory_order_relaxed);
  }

  /// Deterministic, key-sorted binary payload of the full store (stamp,
  /// per-class rings). Two stores holding the same observations
  /// serialize byte-identically.
  std::string Serialize() const;

  /// Restores a Serialize() payload. The drift guard: when the payload's
  /// stamp differs from `expected_stamp`, nothing is imported and
  /// `*discarded` (if non-null) is set — a stale-graph payload is a
  /// clean no-op, not an error. Classes already present win over the
  /// payload's (snapshot semantics: live learning beats stored state).
  util::Status Deserialize(std::string_view bytes, uint64_t expected_stamp,
                           bool* discarded = nullptr);

  /// Every class, sorted by hits descending (ties: key ascending) — the
  /// deterministic order for the wire, the client table and the tests.
  std::vector<FeedbackClassReport> Report() const;

  size_t class_count() const;
  size_t active_count() const;
  uint64_t evictions() const;

  /// Drops every class (the stamp survives). Used by tests and the
  /// drift guard's discard path.
  void Clear();

  /// Parses a Serialize() payload far enough to count its classes —
  /// the `cegraph_stats inspect` entry count — without building a
  /// store. Returns 0 on a malformed payload.
  static uint64_t CountSerializedClasses(std::string_view bytes);

  const FeedbackOptions& options() const { return options_; }

 private:
  struct Entry;

  /// exp(decay-weighted median of `ratios`), clamped. `ratios` is
  /// ordered oldest -> newest.
  double ComputeCorrection(const std::vector<double>& ratios) const;

  FeedbackOptions options_;
  util::ClassTable<Entry> classes_;
  std::atomic<uint64_t> stamp_{0};
};

/// The 64-bit graph stamp corrections are tied to: an FNV-style mix of
/// the base fingerprint's fields. Declared here (not on graph::Graph)
/// because only the feedback layer needs a single-word digest.
uint64_t StampFingerprint(uint32_t num_vertices, uint32_t num_labels,
                          uint32_t num_vertex_labels, uint64_t num_edges,
                          uint64_t edge_hash);

}  // namespace cegraph::learn

#endif  // CEGRAPH_LEARN_FEEDBACK_STORE_H_
