#include "harness/workload_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "estimators/oracle.h"
#include "harness/qerror.h"

namespace cegraph::harness {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int WorkloadRunner::ResolvedThreads() const {
  if (options_.num_threads > 0) return options_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void WorkloadRunner::ForEachIndex(
    size_t n, const std::function<void(size_t)>& fn) const {
  const int threads = ResolvedThreads();
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  const size_t pool_size =
      std::min<size_t>(static_cast<size_t>(threads), n) - 1;
  pool.reserve(pool_size);
  for (size_t t = 0; t < pool_size; ++t) pool.emplace_back(worker);
  worker();  // the calling thread participates
  for (std::thread& t : pool) t.join();
}

SuiteResult WorkloadRunner::RunSuite(
    const std::vector<const CardinalityEstimator*>& estimators,
    const std::vector<query::WorkloadQuery>& workload,
    bool drop_on_any_failure) const {
  const size_t n_est = estimators.size();
  const size_t n_q = workload.size();

  // Per-query scratch, index-addressed so the merge is order-deterministic
  // regardless of which thread computed what.
  struct PerQuery {
    std::vector<double> estimates;  ///< -1 marks a failure
    std::vector<double> seconds;
  };
  std::vector<PerQuery> per_query(n_q);

  ForEachIndex(n_q, [&](size_t qi) {
    const query::WorkloadQuery& wq = workload[qi];
    PerQuery& out = per_query[qi];
    out.estimates.resize(n_est);
    out.seconds.resize(n_est);
    for (size_t i = 0; i < n_est; ++i) {
      const double t0 = Now();
      auto est = estimators[i]->Estimate(wq.query);
      out.seconds[i] = Now() - t0;
      out.estimates[i] = est.ok() ? *est : -1;
    }
  });

  // Serial merge in workload order: identical results for any thread count.
  SuiteResult result;
  std::vector<std::vector<double>> signed_logs(n_est);
  std::vector<size_t> failures(n_est, 0);
  std::vector<double> seconds(n_est, 0);
  for (size_t qi = 0; qi < n_q; ++qi) {
    const PerQuery& pq = per_query[qi];
    bool any_failed = false;
    for (size_t i = 0; i < n_est; ++i) {
      seconds[i] += pq.seconds[i];
      if (pq.estimates[i] < 0) {
        ++failures[i];
        any_failed = true;
      }
    }
    if (any_failed && drop_on_any_failure) {
      ++result.queries_dropped;
      continue;
    }
    ++result.queries_used;
    for (size_t i = 0; i < n_est; ++i) {
      if (pq.estimates[i] < 0) continue;
      // A zero-truth query (or a degenerate estimate) has no finite
      // q-error; admitting it would poison the box stats with NaN.
      if (!UsableQError(pq.estimates[i], workload[qi].true_cardinality)) {
        continue;
      }
      signed_logs[i].push_back(SignedLogQError(
          pq.estimates[i], workload[qi].true_cardinality));
    }
  }

  for (size_t i = 0; i < n_est; ++i) {
    EstimatorReport report;
    report.name = estimators[i]->name();
    report.signed_log_qerror = util::ComputeBoxStats(signed_logs[i]);
    report.failures = failures[i];
    report.total_seconds = seconds[i];
    report.attempted = n_q;  // every estimator was timed on every query
    result.reports.push_back(std::move(report));
  }
  return result;
}

SuiteResult WorkloadRunner::RunOptimisticSuite(
    engine::CegCache& cache, const stats::MarkovTable& markov,
    const stats::CycleClosingRates* rates, OptimisticCeg kind,
    const std::vector<query::WorkloadQuery>& workload,
    size_t pstar_max_paths) const {
  const std::vector<OptimisticSpec> specs = AllOptimisticSpecs(kind);
  const OptimisticEstimator pstar_ceg(markov, specs.front(), rates);
  const size_t n_q = workload.size();
  const size_t n_cols = specs.size() + 1;  // + P*

  struct PerQuery {
    bool ceg_ok = false;            ///< build succeeded and sink reachable
    std::vector<double> estimates;  ///< -1 marks a failure; last is P*
    std::vector<double> seconds;
  };
  std::vector<PerQuery> per_query(n_q);

  ForEachIndex(n_q, [&](size_t qi) {
    const query::WorkloadQuery& wq = workload[qi];
    PerQuery& out = per_query[qi];
    out.estimates.assign(n_cols, -1);
    out.seconds.assign(n_cols, 0);

    const double t0 = Now();
    auto entry = cache.GetOrBuild(wq.query, markov, kind, rates);
    if (!entry.ok() || !(*entry)->aggregates_ok ||
        !(*entry)->aggregates.reachable) {
      return;  // ceg_ok stays false; merged as a dropped query
    }
    const double build_seconds = Now() - t0;
    out.ceg_ok = true;
    const engine::CachedCeg& cached = **entry;

    for (size_t i = 0; i < specs.size(); ++i) {
      const double t1 = Now();
      auto est = OptimisticEstimator::EstimateFromAggregates(
          cached.aggregates, specs[i]);
      out.seconds[i] = build_seconds + (Now() - t1);
      if (est.ok()) out.estimates[i] = *est;
    }

    // The cache keeps aggregates only; the oracle enumerates paths of a
    // CEG of its own.
    const double t2 = Now();
    auto built = pstar_ceg.BuildCeg(wq.query);
    if (!built.ok()) return;
    auto pstar =
        PStarEstimate(built->ceg, wq.true_cardinality, pstar_max_paths);
    out.seconds[specs.size()] = Now() - t2;
    if (pstar.ok()) out.estimates[specs.size()] = *pstar;
  });

  SuiteResult result;
  std::vector<std::vector<double>> signed_logs(n_cols);
  std::vector<size_t> failures(n_cols, 0);
  std::vector<double> seconds(n_cols, 0);
  for (size_t qi = 0; qi < n_q; ++qi) {
    const PerQuery& pq = per_query[qi];
    if (!pq.ceg_ok) {
      for (size_t i = 0; i < n_cols; ++i) ++failures[i];
      ++result.queries_dropped;
      continue;
    }
    ++result.queries_used;
    for (size_t i = 0; i < n_cols; ++i) {
      seconds[i] += pq.seconds[i];
      if (pq.estimates[i] < 0) {
        ++failures[i];
        continue;
      }
      if (!UsableQError(pq.estimates[i], workload[qi].true_cardinality)) {
        continue;
      }
      signed_logs[i].push_back(SignedLogQError(
          pq.estimates[i], workload[qi].true_cardinality));
    }
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    EstimatorReport report;
    report.name = SpecName(specs[i]);
    report.signed_log_qerror = util::ComputeBoxStats(signed_logs[i]);
    report.failures = failures[i];
    report.total_seconds = seconds[i];
    // Time is accumulated only for queries whose CEG build succeeded.
    report.attempted = result.queries_used;
    result.reports.push_back(std::move(report));
  }
  EstimatorReport pstar_report;
  pstar_report.name = kind == OptimisticCeg::kCegOcr ? "P*@ocr" : "P*";
  pstar_report.signed_log_qerror =
      util::ComputeBoxStats(signed_logs[specs.size()]);
  pstar_report.failures = failures[specs.size()];
  pstar_report.total_seconds = seconds[specs.size()];
  pstar_report.attempted = result.queries_used;
  result.reports.push_back(std::move(pstar_report));
  return result;
}

util::StatusOr<SuiteResult> RunSuiteByName(
    const engine::EstimationEngine& engine,
    const std::vector<std::string>& names,
    const std::vector<query::WorkloadQuery>& workload,
    bool drop_on_any_failure, RunnerOptions options) {
  auto estimators = engine.Estimators(names);
  if (!estimators.ok()) return estimators.status();
  return WorkloadRunner(options).RunSuite(*estimators, workload,
                                          drop_on_any_failure);
}

}  // namespace cegraph::harness
