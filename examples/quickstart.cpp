// Quickstart: the paper's running example end to end.
//
// Builds a small multi-label graph (the flavor of Fig. 2), prints its
// h = 2 Markov table entries (Table 1), constructs the CEG_O of a fork
// query like Q5f (Fig. 1/4), enumerates every bottom-to-top path with its
// estimate, runs the 9 optimistic estimators and the MOLP pessimistic
// bound, and compares against the exact cardinality.
#include <cmath>
#include <iostream>

#include "ceg/ceg_o.h"
#include "engine/engine.h"
#include "estimators/optimistic.h"
#include "graph/generators.h"
#include "matching/matcher.h"
#include "query/query_graph.h"
#include "util/table_printer.h"

int main() {
  using namespace cegraph;
  constexpr graph::Label kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;
  const char* kLabelNames = "ABCDE";

  graph::Graph g = graph::MakeRunningExampleGraph();
  std::cout << "Running-example graph: " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges, "
            << g.num_labels() << " labels (A..E)\n\n";

  // --- Table 1: Markov table entries (h = 2) -----------------------------
  // The engine owns every statistic structure; the raw Markov table is
  // borrowed here to print its entries Table-1 style.
  engine::EstimationEngine engine(g);
  const stats::MarkovTable& markov = engine.context().markov();
  std::cout << "Markov table entries (h=2), Table 1 style:\n";
  util::TablePrinter table1({"path", "|path|"});
  auto pattern1 = [&](graph::Label l) {
    return std::move(query::QueryGraph::Create(2, {{0, 1, l}})).value();
  };
  auto pattern2 = [&](graph::Label l1, graph::Label l2) {
    return std::move(
               query::QueryGraph::Create(3, {{0, 1, l1}, {1, 2, l2}}))
        .value();
  };
  for (graph::Label l : {kA, kB, kC, kD, kE}) {
    table1.AddRow({std::string(1, kLabelNames[l]) + "->",
                   util::TablePrinter::Num(*markov.Cardinality(pattern1(l)))});
  }
  for (auto [l1, l2] : {std::pair{kA, kB}, {kB, kC}, {kB, kD}, {kB, kE}}) {
    table1.AddRow(
        {std::string(1, kLabelNames[l1]) + "->" + kLabelNames[l2] + "->",
         util::TablePrinter::Num(*markov.Cardinality(pattern2(l1, l2)))});
  }
  table1.Print(std::cout);

  // --- The fork query Q5f-style: a1 -A-> a2 -B-> a3 -{C,D,E}-> ----------
  auto q5f = std::move(query::QueryGraph::Create(6, {{0, 1, kA},
                                                     {1, 2, kB},
                                                     {2, 3, kC},
                                                     {2, 4, kD},
                                                     {2, 5, kE}}))
                 .value();
  matching::Matcher matcher(g);
  const double truth = *matcher.Count(q5f);
  std::cout << "\nFork query Q5f: A->B then C, D, E out of the B-target; "
               "true cardinality = "
            << truth << "\n\n";

  // --- Every CEG_O path is one estimation formula ------------------------
  auto built = *ceg::BuildCegO(q5f, markov);
  auto paths = built.ceg.EnumerateSimplePaths(1000);
  std::cout << "CEG_O has " << built.ceg.num_nodes() << " nodes, "
            << built.ceg.num_edges() << " edges, " << paths.size()
            << " bottom-to-top paths. Estimates per path:\n";
  util::TablePrinter path_table({"formula (extension rates)", "estimate"});
  for (const auto& path : paths) {
    std::string formula;
    for (uint32_t ei : path.edge_indices) {
      if (!formula.empty()) formula += " x ";
      formula += ceg::DescribeEdge(built, ei);
    }
    path_table.AddRow(
        {formula, util::TablePrinter::Num(std::exp2(path.log_weight))});
  }
  path_table.Print(std::cout);

  // --- The 9 optimistic estimators + MOLP --------------------------------
  std::cout << "\nEstimates (truth = " << truth << "):\n";
  util::TablePrinter est_table({"estimator", "estimate", "q-error"});
  for (const auto& spec : AllOptimisticSpecs()) {
    // Registry-driven construction; the 9 specs share one cached CEG
    // build of q5f through the engine's CegCache.
    auto estimator = engine.Estimator(SpecName(spec));
    if (!estimator.ok()) {
      std::cerr << "registry: " << estimator.status() << "\n";
      return 1;
    }
    const double estimate = *(*estimator)->Estimate(q5f);
    est_table.AddRow({SpecName(spec), util::TablePrinter::Num(estimate),
                      util::TablePrinter::Num(
                          std::max(truth / estimate, estimate / truth))});
  }
  auto molp = engine.Estimator("molp");
  if (!molp.ok()) {
    std::cerr << "registry: " << molp.status() << "\n";
    return 1;
  }
  const double molp_bound = *(*molp)->Estimate(q5f);
  est_table.AddRow({"molp (pessimistic)",
                    util::TablePrinter::Num(molp_bound),
                    util::TablePrinter::Num(molp_bound / truth)});
  est_table.Print(std::cout);
  std::cout << "\nNote how MOLP never drops below the truth (Prop. 5.1) "
               "while the optimistic estimates bracket it: picking the "
               "maximum-weight path (max-hop-max) offsets the classic "
               "underestimation (the paper's §4.2 insight).\n";
  return 0;
}
