#ifndef CEGRAPH_BENCH_E2E_WORKLOAD_H_
#define CEGRAPH_BENCH_E2E_WORKLOAD_H_

// The benchmark's four workloads and the inputs each one is generated
// from. Inputs come only from `cegraph_stats` (workload, deltas and arena
// snapshot files), seeded by the benchmark's --seed; the daemon receives
// nothing else.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/request.h"
#include "util/status.h"

namespace cegraph::e2e {

/// How the load generator drives a workload's measured phase.
enum class Traffic {
  kClosedSingle,  ///< nproc connections, v1 estimate frames, closed loop
  kClosedBatch,   ///< nproc connections, v3 batch frames, closed loop
  kColdOnce,      ///< each pool line once per fresh daemon, v1, closed loop
  kOpenLoop,      ///< fixed-rate v1 frames beside delta feeds and swaps
};

struct WorkloadSpec {
  std::string name;
  std::string dataset;
  std::vector<std::string> estimators;
  bool feedback = false;
  /// The daemon starts from an arena snapshot built over the pool.
  bool snapshot = true;
  /// One untimed pass over the pool precedes the measured phase.
  bool warmup = true;
  Traffic traffic = Traffic::kClosedSingle;
  /// The pool: (suite, instances per template) pairs for
  /// `cegraph_stats workload`.
  std::vector<std::pair<std::string, int>> suites;
  /// kColdOnce: keep this many lines, each of a class no earlier line has.
  size_t distinct_classes = 0;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Lines per v3 batch frame.
inline constexpr int kBatchLines = 16;

/// Where the benchmark finds its binaries and keeps its files.
struct Paths {
  std::string bin_dir;   ///< holds cegraph_serve and cegraph_stats
  std::string work_dir;  ///< scratch for generated inputs and logs
};

struct PoolLine {
  std::string text;       ///< the request line as sent
  std::string class_key;  ///< canonical shape + sorted label multiset
  service::EstimateRequest request;
};

struct Inputs {
  std::vector<PoolLine> pool;  ///< in send order
  std::string snapshot_path;   ///< empty when the workload has none
  /// Delta feeds in the delta text format, each from its own seed.
  std::vector<std::string> feeds;
};

/// Generates the workload's inputs for `seed` under paths.work_dir.
util::StatusOr<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                  size_t num_feeds, const Paths& paths);

/// One estimator's answer in the in-process reference.
struct ReferenceResult {
  bool ok = false;
  double estimate = 0;
};

/// Per pool line, the answers of an in-process EstimationEngine running
/// the workload's suite on the same dataset, in suite order.
using Reference = std::vector<std::vector<ReferenceResult>>;

util::StatusOr<Reference> ComputeReference(const WorkloadSpec& spec,
                                           const Inputs& inputs);

/// True iff `response` carries exactly the reference answers, bit for bit.
bool MatchesReference(const std::vector<ReferenceResult>& reference,
                      const service::EstimateResponse& response);

/// The query-class identity the service keys scorecards and feedback by.
std::string ClassKey(const query::QueryGraph& query);

/// Hardware threads, at least 1.
int Nproc();

}  // namespace cegraph::e2e

#endif  // CEGRAPH_BENCH_E2E_WORKLOAD_H_
