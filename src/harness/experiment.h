#ifndef CEGRAPH_HARNESS_EXPERIMENT_H_
#define CEGRAPH_HARNESS_EXPERIMENT_H_

#include <ostream>
#include <string>
#include <vector>

#include "estimators/estimator.h"
#include "estimators/optimistic.h"
#include "query/workload.h"
#include "stats/cycle_closing.h"
#include "stats/markov_table.h"
#include "util/box_stats.h"

namespace cegraph::harness {

/// The accuracy distribution of one estimator over a workload, in the
/// paper's reporting format (box statistics of signed log10 q-errors plus
/// the 10%-trimmed mean).
struct EstimatorReport {
  std::string name;
  util::BoxStats signed_log_qerror;
  size_t failures = 0;       ///< queries where the estimator erred out
  double total_seconds = 0;  ///< summed estimation time
  /// Queries whose estimation time is included in total_seconds. Set by
  /// the runners; covers attempts on queries later dropped from the
  /// distributions because *another* estimator failed.
  size_t attempted = 0;
  /// Mean per-query latency over every timed attempt: failed or dropped
  /// attempts consumed time too, so dividing by successes alone would
  /// inflate the per-query cost. Falls back to successes + failures when
  /// `attempted` was not populated (hand-built reports).
  double mean_millis() const {
    const size_t n =
        attempted != 0 ? attempted : signed_log_qerror.count + failures;
    return n == 0 ? 0 : 1000.0 * total_seconds / static_cast<double>(n);
  }
};

struct SuiteResult {
  std::vector<EstimatorReport> reports;
  size_t queries_used = 0;
  size_t queries_dropped = 0;  ///< dropped because some estimator failed
};

/// Runs every estimator over the workload. When `drop_on_any_failure` is
/// set (the paper's convention for SumRDF timeouts), a query on which any
/// estimator fails is removed from *all* distributions.
///
/// Thin wrapper over harness::WorkloadRunner (workload_runner.h): queries
/// run on all cores and the deterministic merge makes the accuracy/failure
/// fields independent of the thread count. Two contract notes versus the
/// old serial loop:
///  - estimators are invoked concurrently from multiple threads, so
///    Estimate() must be safe for concurrent calls (all in-tree
///    estimators are; an estimator with mutable per-call state needs a
///    WorkloadRunner with num_threads = 1);
///  - the avg-ms column includes scheduler/contention noise when run in
///    parallel — latency-focused benches should use a serial runner.
SuiteResult RunEstimatorSuite(
    const std::vector<const CardinalityEstimator*>& estimators,
    const std::vector<query::WorkloadQuery>& workload,
    bool drop_on_any_failure = true);

/// Runs the 9 optimistic estimators of §4.2 plus the P* oracle over one
/// CEG kind. The estimators share one CEG build per query class (through
/// an engine::CegCache); the oracle builds its own to enumerate paths.
/// Reports come back in the paper's order (min/avg/max
/// aggregator within max/min/all hops), with P* last. Thin wrapper over
/// harness::WorkloadRunner.
SuiteResult RunOptimisticSuite(const stats::MarkovTable& markov,
                               const stats::CycleClosingRates* rates,
                               OptimisticCeg kind,
                               const std::vector<query::WorkloadQuery>& workload,
                               size_t pstar_max_paths = 200'000);

/// Prints a suite as an aligned table (one row per estimator).
void PrintSuiteResult(std::ostream& os, const std::string& title,
                      const SuiteResult& result);

}  // namespace cegraph::harness

#endif  // CEGRAPH_HARNESS_EXPERIMENT_H_
