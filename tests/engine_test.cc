#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "engine/engine.h"
#include "estimators/optimistic.h"
#include "graph/generators.h"
#include "harness/workload_runner.h"
#include "query/templates.h"
#include "query/workload.h"

namespace cegraph::engine {
namespace {

using query::QueryGraph;

QueryGraph Q(uint32_t n, std::vector<query::QueryEdge> edges) {
  auto q = QueryGraph::Create(n, std::move(edges));
  return std::move(q).value();
}

constexpr graph::Label kA = 0, kB = 1;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : g_(graph::MakeRunningExampleGraph()), engine_(g_) {}
  graph::Graph g_;
  EstimationEngine engine_;
};

// --- EstimatorRegistry ------------------------------------------------------

TEST_F(EngineTest, EveryRegisteredNameConstructsAndEstimates) {
  const QueryGraph q = Q(3, {{0, 1, kA}, {1, 2, kB}});
  const auto names = EstimatorRegistry::Default().RegisteredNames();
  ASSERT_GE(names.size(), 24u);  // 18 optimistic + bounds + baselines
  for (const std::string& name : names) {
    auto estimator = engine_.Estimator(name);
    ASSERT_TRUE(estimator.ok()) << name << ": " << estimator.status();
    auto est = (*estimator)->Estimate(q);
    ASSERT_TRUE(est.ok()) << name << ": " << est.status();
    EXPECT_GE(*est, 0) << name;
  }
}

TEST_F(EngineTest, RegistryResolvesDynamicFamilies) {
  for (const char* name : {"wj-1%", "wj-0.5%", "bs2(molp)",
                           "bs16(max-hop-max)"}) {
    EXPECT_TRUE(EstimatorRegistry::Default().Contains(name)) << name;
    auto estimator = engine_.Estimator(name);
    ASSERT_TRUE(estimator.ok()) << name << ": " << estimator.status();
  }
}

TEST_F(EngineTest, RegistryRejectsUnknownNames) {
  for (const char* name : {"nope", "wj-%", "wj-0%", "wj-200%", "wj-nan%",
                           "wj-inf%", "bs0(molp)", "bs4(nope)"}) {
    EXPECT_FALSE(EstimatorRegistry::Default().Contains(name)) << name;
    auto estimator = engine_.Estimator(name);
    EXPECT_FALSE(estimator.ok()) << name;
  }
}

TEST_F(EngineTest, EstimatorInstancesAreMemoized) {
  auto a = engine_.Estimator("molp");
  auto b = engine_.Estimator("molp");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(EngineTest, CachedOptimisticMatchesDirectConstruction) {
  const QueryGraph queries[] = {
      Q(2, {{0, 1, kA}}),
      Q(3, {{0, 1, kA}, {1, 2, kB}}),
      Q(4, {{0, 1, kA}, {1, 2, kB}, {1, 3, kB}}),
  };
  for (const auto& spec : AllOptimisticSpecs()) {
    auto cached = engine_.Estimator(SpecName(spec));
    ASSERT_TRUE(cached.ok());
    OptimisticEstimator direct(engine_.context().markov(), spec);
    for (const QueryGraph& q : queries) {
      auto a = (*cached)->Estimate(q);
      auto b = direct.Estimate(q);
      ASSERT_EQ(a.ok(), b.ok()) << SpecName(spec);
      if (a.ok()) {
        EXPECT_DOUBLE_EQ(*a, *b) << SpecName(spec);
      }
    }
  }
}

// --- CegCache ---------------------------------------------------------------

TEST_F(EngineTest, CegCacheCountsHitsAndMisses) {
  CegCache cache;
  const QueryGraph q = Q(3, {{0, 1, kA}, {1, 2, kB}});
  const stats::MarkovTable& markov = engine_.context().markov();

  EXPECT_EQ(cache.misses(), 0u);
  auto first = cache.GetOrBuild(q, markov, OptimisticCeg::kCegO);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  auto second = cache.GetOrBuild(q, markov, OptimisticCeg::kCegO);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first->get(), second->get());  // same shared entry

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST_F(EngineTest, CegCacheSharesIsomorphicQueries) {
  CegCache cache;
  const stats::MarkovTable& markov = engine_.context().markov();
  // The same path pattern under two vertex numberings.
  const QueryGraph a = Q(3, {{0, 1, kA}, {1, 2, kB}});
  const QueryGraph b = Q(3, {{2, 0, kA}, {0, 1, kB}});
  ASSERT_TRUE(cache.GetOrBuild(a, markov, OptimisticCeg::kCegO).ok());
  ASSERT_TRUE(cache.GetOrBuild(b, markov, OptimisticCeg::kCegO).ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(EngineTest, CegCacheEntryExposesAggregates) {
  // A 2-path and an alternating-label 4-cycle (longer than h, so CEG_OCR
  // re-weights its closing edges) on a graph with both labels in cycles.
  auto g = graph::GenerateGraph({.num_vertices = 60,
                                 .num_edges = 400,
                                 .num_labels = 2,
                                 .num_types = 1,
                                 .label_zipf_s = 1.0,
                                 .preferential_p = 0.4,
                                 .random_labels = true,
                                 .seed = 11});
  ASSERT_TRUE(g.ok());
  EstimationEngine engine(*g);
  const stats::MarkovTable& markov = engine.context().markov();
  const stats::CycleClosingRates& rates =
      engine.context().cycle_closing_rates();
  const QueryGraph queries[] = {
      Q(3, {{0, 1, kA}, {1, 2, kB}}),
      Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kA}, {3, 0, kB}}),
  };
  CegCache cache;
  for (OptimisticCeg kind : {OptimisticCeg::kCegO, OptimisticCeg::kCegOcr}) {
    for (const QueryGraph& q : queries) {
      auto entry = cache.GetOrBuild(q, markov, kind, &rates);
      ASSERT_TRUE(entry.ok());
      ASSERT_TRUE((*entry)->aggregates_ok);
      EXPECT_TRUE((*entry)->aggregates.reachable);
      // The cached aggregates reproduce a cold estimator bit for bit.
      for (const OptimisticSpec& spec : AllOptimisticSpecs(kind)) {
        auto from_cache = OptimisticEstimator::EstimateFromAggregates(
            (*entry)->aggregates, spec);
        auto from_cold = OptimisticEstimator(markov, spec, &rates).Estimate(q);
        ASSERT_TRUE(from_cache.ok()) << SpecName(spec);
        ASSERT_TRUE(from_cold.ok()) << SpecName(spec);
        EXPECT_EQ(*from_cache, *from_cold) << SpecName(spec);
      }
    }
  }
  EXPECT_EQ(cache.misses(), 4u);
}

// --- WorkloadRunner ---------------------------------------------------------

std::vector<query::WorkloadQuery> SmallWorkload(const graph::Graph& g) {
  query::WorkloadOptions options;
  options.instances_per_template = 4;
  options.seed = 99;
  auto wl = query::GenerateWorkload(
      g, {{"path2", query::PathShape(2)}, {"star2", query::StarShape(2)}},
      options);
  EXPECT_TRUE(wl.ok());
  return std::move(wl).value();
}

void ExpectSameModuloTiming(const harness::SuiteResult& a,
                            const harness::SuiteResult& b) {
  EXPECT_EQ(a.queries_used, b.queries_used);
  EXPECT_EQ(a.queries_dropped, b.queries_dropped);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    EXPECT_EQ(ra.name, rb.name);
    EXPECT_EQ(ra.failures, rb.failures);
    const auto& sa = ra.signed_log_qerror;
    const auto& sb = rb.signed_log_qerror;
    EXPECT_EQ(sa.count, sb.count) << ra.name;
    EXPECT_EQ(sa.min, sb.min) << ra.name;
    EXPECT_EQ(sa.p25, sb.p25) << ra.name;
    EXPECT_EQ(sa.median, sb.median) << ra.name;
    EXPECT_EQ(sa.p75, sb.p75) << ra.name;
    EXPECT_EQ(sa.max, sb.max) << ra.name;
    EXPECT_EQ(sa.mean, sb.mean) << ra.name;
    EXPECT_EQ(sa.trimmed_mean, sb.trimmed_mean) << ra.name;
  }
}

TEST_F(EngineTest, ParallelSuiteMatchesSerialSuite) {
  const auto workload = SmallWorkload(g_);
  ASSERT_FALSE(workload.empty());
  auto estimators =
      engine_.Estimators({"max-hop-max", "min-hop-min", "molp", "cs"});
  ASSERT_TRUE(estimators.ok());

  harness::RunnerOptions serial;
  serial.num_threads = 1;
  const auto reference =
      harness::WorkloadRunner(serial).RunSuite(*estimators, workload);
  for (int threads : {2, 4, 8}) {
    harness::RunnerOptions options;
    options.num_threads = threads;
    const auto parallel =
        harness::WorkloadRunner(options).RunSuite(*estimators, workload);
    ExpectSameModuloTiming(parallel, reference);
  }
}

TEST_F(EngineTest, ParallelOptimisticSuiteMatchesSerial) {
  const auto workload = SmallWorkload(g_);
  ASSERT_FALSE(workload.empty());
  const stats::MarkovTable& markov = engine_.context().markov();

  harness::RunnerOptions serial;
  serial.num_threads = 1;
  CegCache serial_cache;
  const auto reference = harness::WorkloadRunner(serial).RunOptimisticSuite(
      serial_cache, markov, nullptr, OptimisticCeg::kCegO, workload);
  ASSERT_EQ(reference.reports.size(), 10u);  // 9 specs + P*

  harness::RunnerOptions options;
  options.num_threads = 4;
  CegCache parallel_cache;
  const auto parallel = harness::WorkloadRunner(options).RunOptimisticSuite(
      parallel_cache, markov, nullptr, OptimisticCeg::kCegO, workload);
  ExpectSameModuloTiming(parallel, reference);

  // Exactly one build per query class, in both modes.
  EXPECT_EQ(serial_cache.misses() + serial_cache.hits(), workload.size());
  EXPECT_EQ(parallel_cache.misses(), serial_cache.misses());
}

TEST_F(EngineTest, RunSuiteByNameReportsUnknownName) {
  const auto workload = SmallWorkload(g_);
  auto result = harness::RunSuiteByName(engine_, {"max-hop-max", "nope"},
                                        workload);
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineTest, RunSuiteByNameRuns) {
  const auto workload = SmallWorkload(g_);
  auto result =
      harness::RunSuiteByName(engine_, {"max-hop-max", "molp"}, workload);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reports.size(), 2u);
  EXPECT_EQ(result->queries_used + result->queries_dropped, workload.size());
}

// --- EstimatorReport --------------------------------------------------------

TEST(EstimatorReportTest, MeanMillisDividesByAttemptedQueries) {
  harness::EstimatorReport report;
  report.total_seconds = 1.0;
  report.signed_log_qerror.count = 5;
  report.failures = 5;
  // 10 attempted queries at 1 second total = 100 ms per attempt.
  EXPECT_DOUBLE_EQ(report.mean_millis(), 100.0);
  report.failures = 0;
  EXPECT_DOUBLE_EQ(report.mean_millis(), 200.0);
  report.signed_log_qerror.count = 0;
  EXPECT_DOUBLE_EQ(report.mean_millis(), 0.0);
}

}  // namespace
}  // namespace cegraph::engine
