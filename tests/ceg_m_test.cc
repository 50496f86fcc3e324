#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "ceg/ceg_m.h"
#include "estimators/bound_sketch.h"
#include "estimators/pessimistic.h"
#include "graph/generators.h"
#include "query/templates.h"
#include "stats/degree_stats.h"

namespace cegraph::ceg {
namespace {

using graph::Graph;
using query::QueryGraph;
using query::VertexSet;

QueryGraph Q(uint32_t n, std::vector<query::QueryEdge> edges) {
  auto q = QueryGraph::Create(n, std::move(edges));
  return std::move(q).value();
}

constexpr graph::Label kA = 0, kB = 1;

class CegMTest : public ::testing::Test {
 protected:
  CegMTest() : g_(graph::MakeRunningExampleGraph()), catalog_(g_) {}

  stats::DegreeStats Stats(const QueryGraph& q, bool two_joins = false) {
    auto s = stats::DegreeStats::Build(catalog_, q, two_joins);
    return std::move(s).value();
  }

  Graph g_;
  stats::StatsCatalog catalog_;
};

TEST_F(CegMTest, NodeIdsAreSubsetMasks) {
  const QueryGraph q = Q(3, {{0, 1, kA}, {1, 2, kB}});
  auto built = BuildCegM(q, Stats(q));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->ceg.num_nodes(), 8u);  // 2^3 attribute subsets
  EXPECT_EQ(built->ceg.source(), 0u);
  EXPECT_EQ(built->ceg.sink(), 0b111u);
}

TEST_F(CegMTest, SingleEdgeBoundIsRelationSize) {
  const QueryGraph q = Q(2, {{0, 1, kA}});
  auto min_log = MolpMinLogWeight(q, Stats(q));
  ASSERT_TRUE(min_log.ok());
  EXPECT_NEAR(std::exp2(*min_log), 4.0, 1e-9);  // |A| = 4
}

TEST_F(CegMTest, TwoPathBoundUsesMaxDegrees) {
  // A ⋈ B: candidate formulas include |A| * maxoutdeg(B) = 4*1 = 4 and
  // |B| * maxindeg(A) = 2*3 = 6; MOLP <= 4.
  const QueryGraph q = Q(3, {{0, 1, kA}, {1, 2, kB}});
  auto min_log = MolpMinLogWeight(q, Stats(q));
  ASSERT_TRUE(min_log.ok());
  EXPECT_LE(std::exp2(*min_log), 4.0 + 1e-9);
  // Sound: true count is 4.
  EXPECT_GE(std::exp2(*min_log) + 1e-9, 4.0);
}

TEST_F(CegMTest, ProjectionEdgesHaveZeroWeight) {
  const QueryGraph q = Q(3, {{0, 1, kA}, {1, 2, kB}});
  auto built = BuildCegM(q, Stats(q));
  ASSERT_TRUE(built.ok());
  int projections = 0;
  for (const auto& e : built->ceg.edges()) {
    if (e.kind == Ceg::EdgeKind::kProjection) {
      ++projections;
      EXPECT_DOUBLE_EQ(e.log_weight, 0.0);
      // Projections remove exactly one attribute.
      EXPECT_EQ(std::popcount(e.from), std::popcount(e.to) + 1);
    } else {
      // Extensions strictly grow the attribute set.
      EXPECT_GT(std::popcount(e.to), std::popcount(e.from));
    }
  }
  EXPECT_GT(projections, 0);
  CegMOptions no_proj;
  no_proj.include_projection_edges = false;
  auto bare = BuildCegM(q, Stats(q), no_proj);
  ASSERT_TRUE(bare.ok());
  for (const auto& e : bare->ceg.edges()) {
    EXPECT_NE(e.kind, Ceg::EdgeKind::kProjection);
  }
  EXPECT_TRUE(bare->ceg.IsDag());
  EXPECT_FALSE(built->ceg.IsDag());  // up+down edges create cycles
}

TEST_F(CegMTest, MolpMinPathIsConsistent) {
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, 2}});
  const auto stats = Stats(q);
  auto path = MolpMinPath(q, stats);
  ASSERT_TRUE(path.ok());
  ASSERT_FALSE(path->empty());
  // Steps chain from ∅ to the full attribute set.
  EXPECT_EQ(path->front().from, 0u);
  const VertexSet full = (VertexSet{1} << q.num_vertices()) - 1;
  EXPECT_EQ(path->back().to, full);
  for (size_t i = 1; i < path->size(); ++i) {
    EXPECT_EQ((*path)[i].from, (*path)[i - 1].to);
  }
  // The first step is unbound (x == 0): nothing is bound at the source.
  EXPECT_EQ(path->front().x, 0u);
}

TEST_F(CegMTest, TwoJoinStatsAddRelationsAndTighten) {
  const QueryGraph q = Q(4, {{0, 1, kA}, {1, 2, kB}, {2, 3, 2}});
  const auto base = Stats(q, false);
  const auto with2j = Stats(q, true);
  EXPECT_GT(with2j.relations().size(), base.relations().size());
  auto b = MolpMinLogWeight(q, base);
  auto t = MolpMinLogWeight(q, with2j);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(t.ok());
  EXPECT_LE(*t, *b + 1e-9);
}

TEST_F(CegMTest, ExplicitAndImplicitAgreeOnManyShapes) {
  auto big = graph::GenerateGraph({.num_vertices = 60,
                                   .num_edges = 400,
                                   .num_labels = 3,
                                   .num_types = 1,
                                   .label_zipf_s = 1.0,
                                   .preferential_p = 0.4,
                                   .random_labels = true,
                                   .seed = 7});
  ASSERT_TRUE(big.ok());
  stats::StatsCatalog catalog(*big);
  for (const auto& shape :
       {query::PathShape(4), query::StarShape(4), query::CycleShape(4),
        query::DiamondShape(), query::BowtieShape()}) {
    std::vector<query::QueryEdge> edges = shape.edges();
    for (uint32_t i = 0; i < edges.size(); ++i) {
      edges[i].label = i % 3;
    }
    auto labeled = QueryGraph::Create(shape.num_vertices(),
                                      std::move(edges));
    ASSERT_TRUE(labeled.ok());
    auto stats = stats::DegreeStats::Build(catalog, *labeled, false);
    ASSERT_TRUE(stats.ok());
    auto implicit = MolpMinLogWeight(*labeled, *stats);
    ASSERT_TRUE(implicit.ok());
    auto built = BuildCegM(*labeled, *stats);
    ASSERT_TRUE(built.ok());
    auto explicit_min = built->ceg.MinLogWeightDijkstra();
    ASSERT_TRUE(explicit_min.ok());
    EXPECT_NEAR(*implicit, *explicit_min, 1e-9);
  }
}

TEST_F(CegMTest, RejectsOversizeQueries) {
  // 15 attributes exceed the explicit builder's limit.
  const QueryGraph q = query::PathShape(14);
  std::vector<query::QueryEdge> edges = q.edges();
  for (auto& e : edges) e.label = 0;
  auto labeled = QueryGraph::Create(q.num_vertices(), std::move(edges));
  ASSERT_TRUE(labeled.ok());
  auto stats = stats::DegreeStats::Build(catalog_, *labeled, false);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(BuildCegM(*labeled, *stats).ok());
  // The implicit Dijkstra still works (bounded by 31 attributes).
  EXPECT_TRUE(MolpMinLogWeight(*labeled, *stats).ok());
}

TEST(BoundSketchInternalsTest, PartitionCountScalesWithBudget) {
  // On a 3-path, S = {one join attribute}: K buckets -> K sub-queries.
  // Verify monotone tightening of the MOLP sketch as K grows.
  auto g = graph::GenerateGraph({.num_vertices = 200,
                                 .num_edges = 1600,
                                 .num_labels = 3,
                                 .num_types = 1,
                                 .label_zipf_s = 1.0,
                                 .preferential_p = 0.6,
                                 .random_labels = true,
                                 .seed = 13});
  ASSERT_TRUE(g.ok());
  QueryGraph q = std::move(QueryGraph::Create(
      4, {{0, 1, 0}, {1, 2, 1}, {2, 3, 2}})).value();
  double previous = std::numeric_limits<double>::infinity();
  for (int k : {1, 4, 16}) {
    BoundSketchEstimator::Options options;
    options.budget_k = k;
    BoundSketchEstimator bs(*g, BoundSketchEstimator::Inner::kMolp, options);
    auto est = bs.Estimate(q);
    ASSERT_TRUE(est.ok());
    EXPECT_LE(*est, previous * (1 + 1e-9)) << "K=" << k;
    previous = *est;
  }
}

TEST(BoundSketchInternalsTest, NoJoinAttributesFallsBackToDirect) {
  // A single-edge query has no join attributes: the sketch must equal the
  // direct estimate for every K.
  auto g = graph::MakeRunningExampleGraph();
  QueryGraph q = std::move(QueryGraph::Create(2, {{0, 1, kA}})).value();
  stats::StatsCatalog catalog(g);
  cegraph::MolpEstimator direct(catalog, false);
  for (int k : {1, 16, 128}) {
    BoundSketchEstimator::Options options;
    options.budget_k = k;
    BoundSketchEstimator bs(g, BoundSketchEstimator::Inner::kMolp, options);
    auto a = bs.Estimate(q);
    auto b = direct.Estimate(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(*a, *b) << "K=" << k;
  }
}

}  // namespace
}  // namespace cegraph::ceg
