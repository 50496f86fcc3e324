#ifndef CEGRAPH_HARNESS_WORKLOAD_RUNNER_H_
#define CEGRAPH_HARNESS_WORKLOAD_RUNNER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "estimators/estimator.h"
#include "estimators/optimistic.h"
#include "harness/experiment.h"
#include "query/workload.h"
#include "stats/cycle_closing.h"
#include "stats/markov_table.h"

namespace cegraph::harness {

/// Parallelism knobs for full-workload suites.
struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(), 1 = serial
  /// (no threads spawned).
  int num_threads = 0;
};

/// Multi-threaded workload execution: queries are distributed over a small
/// thread pool, per-query results land in an index-addressed buffer, and
/// the merge into BoxStats runs serially in workload order — so the
/// accuracy/failure fields of a SuiteResult are identical for any thread
/// count (only the wall-clock timing fields vary run to run).
class WorkloadRunner {
 public:
  explicit WorkloadRunner(RunnerOptions options = {}) : options_(options) {}

  /// The thread count this runner resolves to (>= 1).
  int ResolvedThreads() const;

  /// Runs `fn(i)` for every i in [0, n), spread across the pool. `fn` must
  /// be safe to call concurrently for distinct indices.
  void ForEachIndex(size_t n, const std::function<void(size_t)>& fn) const;

  /// Every estimator over the workload (the parallel core behind
  /// RunEstimatorSuite; same drop semantics).
  SuiteResult RunSuite(
      const std::vector<const CardinalityEstimator*>& estimators,
      const std::vector<query::WorkloadQuery>& workload,
      bool drop_on_any_failure = true) const;

  /// The 9 optimistic estimators + P* oracle over one CEG kind. The
  /// estimators read each query's path aggregates through `cache` (exactly
  /// one build per query class per kind; the cache's hit/miss counters
  /// expose that invariant); the oracle enumerates the paths of a CEG it
  /// builds per query, since the cache keeps no CEG.
  SuiteResult RunOptimisticSuite(
      engine::CegCache& cache, const stats::MarkovTable& markov,
      const stats::CycleClosingRates* rates, OptimisticCeg kind,
      const std::vector<query::WorkloadQuery>& workload,
      size_t pstar_max_paths = 200'000) const;

 private:
  RunnerOptions options_;
};

/// Registry-driven suite over a shared engine: resolves `names` through the
/// engine's registry and runs them with a WorkloadRunner. The convenience
/// entry point benches use.
util::StatusOr<SuiteResult> RunSuiteByName(
    const engine::EstimationEngine& engine,
    const std::vector<std::string>& names,
    const std::vector<query::WorkloadQuery>& workload,
    bool drop_on_any_failure = true, RunnerOptions options = {});

}  // namespace cegraph::harness

#endif  // CEGRAPH_HARNESS_WORKLOAD_RUNNER_H_
