#ifndef CEGRAPH_BENCH_E2E_TRACED_H_
#define CEGRAPH_BENCH_E2E_TRACED_H_

// The per-layer half of the benchmark (--trace 1). Two sources feed it:
//
//  * the daemon's own /metrics page, scraped before and after the traced
//    load (server stage histograms, byte and shed counters, cache
//    counters);
//  * calls the benchmark makes itself into each layer's public functions,
//    in-process, over the workload's frames: an EstimationService built
//    with the daemon's options replays them with an obs::StageTrace
//    installed, and each layer (wire, CEG cache, statistics, estimators,
//    feedback store, scorecard, dynamic maintenance, snapshots) is timed
//    directly.
//
// Every metric is named <module>.<metric> after the module under
// src/ that it measures.

#include <map>
#include <string>
#include <vector>

#include "util/status.h"
#include "workload.h"

namespace cegraph::e2e {

using Layers = std::map<std::string, double>;

/// One Prometheus text page, as series name -> (labels, value).
struct Scrape {
  struct Series {
    std::string labels;
    double value = 0;
  };
  std::multimap<std::string, Series> series;
};

/// GETs /metrics from the daemon's exporter on `port`.
util::StatusOr<Scrape> ScrapeMetrics(int port);

/// What the load generator saw of the traced load, for the server split.
struct ClientView {
  double mean_frame_micros = 0;  ///< client round trip per frame
  double lines = 0;              ///< estimate lines answered
};

/// server.*, engine.ceg_hit_ratio, engine.resident_entries,
/// stats.*_hit_ratio and trace.unattributed_frac from two scrapes
/// bracketing the traced load.
void AddDaemonLayers(const Scrape& before, const Scrape& after,
                     const ClientView& client, Layers* layers);

/// The in-process replay and direct layer calls. Frames are the pool's
/// (cold-classes: its first lines, once); `work_dir` receives the
/// snapshot the replayed state is saved to.
util::Status AddInProcessLayers(const WorkloadSpec& spec,
                                const Inputs& inputs,
                                const std::string& work_dir,
                                Layers* layers);

/// The per-layer metrics every traced run reports, with their units, in
/// print order.
struct LayerMetric {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetric>& PerLayerMetrics();

}  // namespace cegraph::e2e

#endif  // CEGRAPH_BENCH_E2E_TRACED_H_
