#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "ceg/ceg_o.h"
#include "ceg/ceg_ocr.h"
#include "graph/generators.h"
#include "matching/matcher.h"
#include "query/templates.h"
#include "stats/markov_table.h"

namespace cegraph::ceg {
namespace {

using graph::Graph;
using query::QueryGraph;

QueryGraph Q(uint32_t n, std::vector<query::QueryEdge> edges) {
  auto q = QueryGraph::Create(n, std::move(edges));
  return std::move(q).value();
}

// Labels of the running example: A=0, B=1, C=2, D=3, E=4.
constexpr graph::Label kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;

// The 60-vertex, two-label random graph of the cyclic tests below.
Graph TwoLabelGraph() {
  auto g = graph::GenerateGraph({.num_vertices = 60,
                                 .num_edges = 400,
                                 .num_labels = 2,
                                 .num_types = 1,
                                 .label_zipf_s = 1.0,
                                 .preferential_p = 0.4,
                                 .random_labels = true,
                                 .seed = 11});
  return std::move(g).value();
}

// The alternating-label 4-cycle a0 -0-> a1 -1-> a2 -0-> a3 -1-> a0.
QueryGraph FourCycle() {
  return Q(4, {{0, 1, 0}, {1, 2, 1}, {2, 3, 0}, {3, 0, 1}});
}

std::vector<std::string> DescribeAll(const BuiltCegO& built) {
  std::vector<std::string> out;
  for (uint32_t ei = 0; ei < built.ceg.num_edges(); ++ei) {
    out.push_back(DescribeEdge(built, ei));
  }
  return out;
}

class CegOTest : public ::testing::Test {
 protected:
  CegOTest() : g_(graph::MakeRunningExampleGraph()), markov2_(g_, 2) {}
  Graph g_;
  stats::MarkovTable markov2_;
};

TEST_F(CegOTest, PatternInTableIsExact) {
  // A 2-path is stored directly: the only path is ∅ -> Q with weight |Q|.
  QueryGraph q = Q(3, {{0, 1, kA}, {1, 2, kB}});
  auto built = BuildCegO(q, markov2_);
  ASSERT_TRUE(built.ok());
  auto agg = built->ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->path_count, 1.0);
  EXPECT_NEAR(std::exp2(agg->max_log), 4.0, 1e-9);  // |A->B->| = 4
}

TEST_F(CegOTest, ThreePathMarkovFormula) {
  // Q3p = A->B->C-> with h=2: the paper's §4.1 formula
  // |A->B->| * |B->C->| / |B->| = 4 * 3/2 = 6 (true cardinality is 7).
  QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto built = BuildCegO(q, markov2_);
  ASSERT_TRUE(built.ok());
  auto agg = built->ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  // Both directions of composing the two 2-paths give 6.
  EXPECT_NEAR(std::exp2(agg->min_log), 6.0, 1e-9);
  EXPECT_NEAR(std::exp2(agg->max_log), 6.0, 1e-9);
  matching::Matcher matcher(g_);
  auto truth = matcher.Count(q);
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(*truth, 7.0);
}

TEST_F(CegOTest, ForkQueryHasMultipleDistinctEstimates) {
  // Q5f-like fork: a1-A->a2-B->a3 with C, D, E fanning out of a3.
  QueryGraph q = Q(6, {{0, 1, kA},
                       {1, 2, kB},
                       {2, 3, kC},
                       {2, 4, kD},
                       {2, 5, kE}});
  auto built = BuildCegO(q, markov2_);
  ASSERT_TRUE(built.ok());
  auto agg = built->ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  EXPECT_GT(agg->path_count, 1.0);
  EXPECT_LT(std::exp2(agg->min_log), std::exp2(agg->max_log));
}

TEST_F(CegOTest, DescribeEdgeReproducesForkQueryFormulas) {
  // Golden formulas of every CEG_O edge of the quickstart's Q5f fork, in
  // edge order: seven first hops |E|, then extension rates |E|/|I|.
  QueryGraph q = Q(6, {{0, 1, kA},
                       {1, 2, kB},
                       {2, 3, kC},
                       {2, 4, kD},
                       {2, 5, kE}});
  auto built = BuildCegO(q, markov2_);
  ASSERT_TRUE(built.ok());
  const std::vector<std::string> expected = {
      "|{e0,e1}|", "|{e1,e2}|", "|{e1,e3}|", "|{e2,e3}|", "|{e1,e4}|",
      "|{e2,e4}|", "|{e3,e4}|", "|{e0,e1}|/|{e0}|", "|{e0,e1}|/|{e1}|",
      "|{e1,e2}|/|{e1}|", "|{e1,e3}|/|{e1}|", "|{e1,e4}|/|{e1}|",
      "|{e1,e2}|/|{e2}|", "|{e2,e3}|/|{e2}|", "|{e2,e4}|/|{e2}|",
      "|{e1,e3}|/|{e3}|", "|{e2,e3}|/|{e3}|", "|{e3,e4}|/|{e3}|",
      "|{e1,e4}|/|{e4}|", "|{e2,e4}|/|{e4}|", "|{e3,e4}|/|{e4}|",
      "|{e1,e2}|/|{e1}|", "|{e1,e3}|/|{e1}|", "|{e1,e4}|/|{e1}|",
      "|{e0,e1}|/|{e1}|", "|{e1,e3}|/|{e1}|", "|{e2,e3}|/|{e2}|",
      "|{e1,e4}|/|{e1}|", "|{e2,e4}|/|{e2}|", "|{e0,e1}|/|{e1}|",
      "|{e1,e2}|/|{e1}|", "|{e2,e3}|/|{e3}|", "|{e1,e4}|/|{e1}|",
      "|{e3,e4}|/|{e3}|", "|{e1,e2}|/|{e2}|", "|{e1,e3}|/|{e3}|",
      "|{e2,e4}|/|{e2}|", "|{e3,e4}|/|{e3}|", "|{e0,e1}|/|{e1}|",
      "|{e1,e2}|/|{e1}|", "|{e1,e3}|/|{e1}|", "|{e2,e4}|/|{e4}|",
      "|{e3,e4}|/|{e4}|", "|{e1,e2}|/|{e2}|", "|{e2,e3}|/|{e2}|",
      "|{e1,e4}|/|{e4}|", "|{e3,e4}|/|{e4}|", "|{e1,e3}|/|{e3}|",
      "|{e2,e3}|/|{e3}|", "|{e1,e4}|/|{e4}|", "|{e2,e4}|/|{e4}|",
      "|{e1,e3}|/|{e1}|", "|{e2,e3}|/|{e2}|", "|{e1,e4}|/|{e1}|",
      "|{e2,e4}|/|{e2}|", "|{e1,e2}|/|{e1}|", "|{e2,e3}|/|{e3}|",
      "|{e1,e4}|/|{e1}|", "|{e3,e4}|/|{e3}|", "|{e0,e1}|/|{e1}|",
      "|{e1,e4}|/|{e1}|", "|{e2,e4}|/|{e2}|", "|{e3,e4}|/|{e3}|",
      "|{e1,e2}|/|{e1}|", "|{e1,e3}|/|{e1}|", "|{e2,e4}|/|{e4}|",
      "|{e3,e4}|/|{e4}|", "|{e0,e1}|/|{e1}|", "|{e1,e3}|/|{e1}|",
      "|{e2,e3}|/|{e2}|", "|{e3,e4}|/|{e4}|", "|{e0,e1}|/|{e1}|",
      "|{e1,e2}|/|{e1}|", "|{e2,e3}|/|{e3}|", "|{e2,e4}|/|{e4}|",
      "|{e1,e2}|/|{e2}|", "|{e1,e3}|/|{e3}|", "|{e1,e4}|/|{e4}|",
      "|{e1,e4}|/|{e1}|", "|{e2,e4}|/|{e2}|", "|{e3,e4}|/|{e3}|",
      "|{e1,e3}|/|{e1}|", "|{e2,e3}|/|{e2}|", "|{e3,e4}|/|{e4}|",
      "|{e1,e2}|/|{e1}|", "|{e2,e3}|/|{e3}|", "|{e2,e4}|/|{e4}|",
      "|{e0,e1}|/|{e1}|"};
  EXPECT_EQ(DescribeAll(*built), expected);
}

TEST_F(CegOTest, DpAggregatesMatchEnumeration) {
  // Property: the DP aggregates equal brute-force path enumeration.
  const std::vector<QueryGraph> queries = {
      Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}}),
      Q(6, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}, {2, 4, kD}, {2, 5, kE}}),
      Q(5, {{0, 1, kA}, {1, 2, kB}, {2, 3, kD}, {2, 4, kE}}),
  };
  for (const QueryGraph& q : queries) {
    auto built = BuildCegO(q, markov2_);
    ASSERT_TRUE(built.ok());
    auto agg = built->ceg.ComputeAggregates();
    ASSERT_TRUE(agg.ok());
    bool truncated = true;
    auto paths = built->ceg.EnumerateSimplePaths(1'000'000, &truncated);
    ASSERT_FALSE(truncated);
    ASSERT_EQ(static_cast<double>(paths.size()), agg->path_count);
    double min_log = 1e18, max_log = -1e18, sum = 0;
    for (const auto& p : paths) {
      min_log = std::min(min_log, p.log_weight);
      max_log = std::max(max_log, p.log_weight);
      sum += std::exp2(p.log_weight);
    }
    EXPECT_NEAR(min_log, agg->min_log, 1e-9);
    EXPECT_NEAR(max_log, agg->max_log, 1e-9);
    EXPECT_NEAR(sum / paths.size(), agg->avg_estimate, 1e-6);
  }
}

TEST_F(CegOTest, RejectsDisconnectedQuery) {
  auto q = QueryGraph::Create(4, {{0, 1, kA}, {2, 3, kB}});
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(BuildCegO(*q, markov2_).ok());
}

TEST_F(CegOTest, SizeHRuleReducesEdges) {
  QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  CegOOptions strict;
  CegOOptions relaxed;
  relaxed.size_h_numerators = false;
  auto built_strict = BuildCegO(q, markov2_, strict);
  auto built_relaxed = BuildCegO(q, markov2_, relaxed);
  ASSERT_TRUE(built_strict.ok());
  ASSERT_TRUE(built_relaxed.ok());
  EXPECT_LT(built_strict->ceg.num_edges(), built_relaxed->ceg.num_edges());
}

TEST(CegOCyclicTest, EarlyCycleClosingPrunesNonClosingExtensions) {
  // A graph with a directed triangle and extra edges.
  auto g = graph::Graph::Create(
      5, 1,
      {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {1, 3, 0}, {3, 0, 0}, {2, 4, 0}});
  ASSERT_TRUE(g.ok());
  stats::MarkovTable markov(*g, 2);
  QueryGraph tri = std::move(
      QueryGraph::Create(3, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}})).value();

  auto built = BuildCegO(tri, markov);
  ASSERT_TRUE(built.ok());
  // From every 2-edge sub-query the only extension closes the triangle, so
  // all paths have exactly 2 hops: ∅ -> 2-subquery -> triangle.
  auto agg = built->ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->reachable);
  ASSERT_EQ(agg->per_hop.size(), 1u);
  EXPECT_EQ(agg->per_hop[0].hops, 2);
}

TEST(CegOCyclicTest, CegOBreaksLargeCyclesIntoPaths) {
  // For a 4-cycle with h=3, CEG_O's estimate equals a path estimate: it
  // overestimates badly when paths far outnumber cycles. Just verify the
  // CEG builds and every bottom-to-top path exists (estimate > 0).
  const Graph g = TwoLabelGraph();
  stats::MarkovTable markov(g, 3);
  auto built = BuildCegO(FourCycle(), markov);
  ASSERT_TRUE(built.ok());
  auto agg = built->ceg.ComputeAggregates();
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->reachable);
}

TEST(CegOcrTest, RewritesClosingEdgeWeights) {
  const Graph g = TwoLabelGraph();
  stats::MarkovTable markov(g, 3);
  stats::CycleClosingRates rates(g);
  const QueryGraph cyc = FourCycle();

  auto plain = BuildCegO(cyc, markov);
  auto ocr = BuildCegOcr(cyc, markov, rates);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(ocr.ok());
  ASSERT_EQ(plain->ceg.num_edges(), ocr->ceg.num_edges());

  // The OCR estimate must be strictly below the plain CEG_O estimate: the
  // closing edge's average-degree weight (>= 1-ish) is replaced by a
  // probability (<= 1).
  auto plain_agg = plain->ceg.ComputeAggregates();
  auto ocr_agg = ocr->ceg.ComputeAggregates();
  ASSERT_TRUE(plain_agg.ok());
  ASSERT_TRUE(ocr_agg.ok());
  EXPECT_LT(ocr_agg->max_log, plain_agg->max_log);

  // The rewritten edges, and only those, are marked as closing rates.
  auto closing = [](const BuiltCegO& built) {
    return std::count_if(built.ceg.edges().begin(), built.ceg.edges().end(),
                         [](const Ceg::Edge& e) {
                           return e.kind == Ceg::EdgeKind::kClosingRate;
                         });
  };
  EXPECT_GT(closing(*ocr), 0);
  EXPECT_EQ(closing(*plain), 0);
}

TEST(CegOcrTest, DescribeEdgeNamesClosingRates) {
  // Golden formulas of every CEG_OCR edge of the 4-cycle, in edge order;
  // the last eight close the cycle with a sampled probability.
  const Graph g = TwoLabelGraph();
  stats::MarkovTable markov(g, 3);
  stats::CycleClosingRates rates(g);
  auto built = BuildCegOcr(FourCycle(), markov, rates);
  ASSERT_TRUE(built.ok());
  const std::vector<std::string> expected = {
      "|{e0,e1,e2}|", "|{e0,e1,e3}|", "|{e0,e2,e3}|", "|{e1,e2,e3}|",
      "|{e0,e1}|/|{e0}|", "|{e0,e3}|/|{e0}|", "|{e0,e1,e2}|/|{e0}|",
      "|{e0,e1,e3}|/|{e0}|", "|{e0,e2,e3}|/|{e0}|", "|{e0,e1}|/|{e1}|",
      "|{e1,e2}|/|{e1}|", "|{e0,e1,e2}|/|{e1}|", "|{e0,e1,e3}|/|{e1}|",
      "|{e1,e2,e3}|/|{e1}|", "|{e1,e2}|/|{e2}|", "|{e2,e3}|/|{e2}|",
      "|{e0,e1,e2}|/|{e2}|", "|{e0,e2,e3}|/|{e2}|", "|{e1,e2,e3}|/|{e2}|",
      "|{e0,e3}|/|{e3}|", "|{e2,e3}|/|{e3}|", "|{e0,e1,e3}|/|{e3}|",
      "|{e0,e2,e3}|/|{e3}|", "|{e1,e2,e3}|/|{e3}|", "|{e0,e2,e3}|/|{e0}|",
      "|{e1,e2,e3}|/|{e1}|", "|{e0,e1,e3}|/|{e1}|", "|{e0,e2,e3}|/|{e2}|",
      "|{e0,e1,e2}|/|{e0}|", "|{e1,e2,e3}|/|{e3}|", "|{e0,e1,e2}|/|{e2}|",
      "|{e0,e1,e3}|/|{e3}|", "closing-rate(e3)", "closing-rate(e3)",
      "closing-rate(e2)", "closing-rate(e2)", "closing-rate(e1)",
      "closing-rate(e1)", "closing-rate(e0)", "closing-rate(e0)"};
  EXPECT_EQ(DescribeAll(*built), expected);
}

TEST(CegOcrTest, AcyclicQueryUnchanged) {
  Graph g = graph::MakeRunningExampleGraph();
  stats::MarkovTable markov(g, 2);
  stats::CycleClosingRates rates(g);
  QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, kC}});
  auto plain = BuildCegO(q, markov);
  auto ocr = BuildCegOcr(q, markov, rates);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(ocr.ok());
  auto pa = plain->ceg.ComputeAggregates();
  auto oa = ocr->ceg.ComputeAggregates();
  EXPECT_DOUBLE_EQ(pa->max_log, oa->max_log);
  EXPECT_DOUBLE_EQ(pa->min_log, oa->min_log);
}

}  // namespace
}  // namespace cegraph::ceg
