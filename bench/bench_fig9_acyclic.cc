// Reproduces Figure 9: the 9 optimistic estimators plus the P* oracle on
// CEG_O over the acyclic workloads, one panel per dataset (h = 3, §6.2.1).
// Expected shape: max-aggr beats avg-aggr beats min-aggr
// everywhere; max-hop ~= all-hops >= min-hop; estimators mostly
// *under*estimate (negative signed log q-errors).
#include <iostream>

#include "bench_common.h"
#include "engine/engine.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace cegraph;
  const int instances = bench::InstancesFromArgs(argc, argv, 12);

  struct Panel {
    const char* dataset;
    const char* suite;
  };
  const Panel panels[] = {
      {"imdb_like", "job"},          {"yago_like", "gcare-acyclic"},
      {"dblp_like", "acyclic"},      {"watdiv_like", "acyclic"},
      {"hetionet_like", "acyclic"},  {"epinions_like", "acyclic"},
  };

  std::cout << "Figure 9: optimistic estimators on CEG_O, acyclic "
               "workloads (h=3)\n\n";
  for (const Panel& panel : panels) {
    auto dw = bench::MakeDatasetWorkload(panel.dataset, panel.suite,
                                         instances, 0xF19);
    auto acyclic = query::FilterAcyclic(dw.workload);
    engine::ContextOptions options;
    options.markov_h = 3;
    engine::EstimationEngine engine(dw.graph, options);
    bench::MaybeLoadSnapshot(engine, panel.dataset);
    auto result =
        bench::RunOptimisticWithEngine(engine, OptimisticCeg::kCegO, acyclic);
    harness::PrintSuiteResult(
        std::cout,
        std::string(panel.dataset) + " / " + panel.suite, result);
  }
  return 0;
}
