#include "workload.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "daemon.h"
#include "engine/engine.h"
#include "graph/datasets.h"

namespace cegraph::e2e {

namespace {

/// Delta operations per feed: small enough that a fold is incremental
/// maintenance, not a rebuild.
constexpr size_t kFeedOps = 100;

std::vector<WorkloadSpec> BuildWorkloads() {
  const std::vector<std::string> default_suite = {
      "max-hop-max", "all-hops-avg", "molp", "cbs", "cs"};
  const std::vector<std::string> cheap_suite = {
      "max-hop-max", "all-hops-avg", "min-hop-min", "molp", "cbs"};

  WorkloadSpec warm;
  warm.name = "warm-default";
  warm.dataset = "epinions_like";
  warm.estimators = default_suite;
  warm.suites = {{"acyclic", 40}};
  warm.traffic = Traffic::kClosedSingle;

  WorkloadSpec batch;
  batch.name = "batch-feedback";
  batch.dataset = "imdb_like";
  batch.estimators = cheap_suite;
  batch.feedback = true;
  batch.suites = {{"job", 40}, {"cyclic", 10}};
  batch.traffic = Traffic::kClosedBatch;

  WorkloadSpec cold;
  cold.name = "cold-classes";
  cold.dataset = "epinions_like";
  cold.estimators = cheap_suite;
  cold.snapshot = false;
  cold.warmup = false;
  // 18 acyclic templates x 460 instances leaves room to drop the
  // instances whose class an earlier line already has.
  cold.suites = {{"acyclic", 460}};
  cold.distinct_classes = 8000;
  cold.traffic = Traffic::kColdOnce;

  WorkloadSpec churn = warm;
  churn.name = "churn";
  churn.traffic = Traffic::kOpenLoop;

  return {warm, batch, cold, churn};
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Fisher-Yates over a seeded SplitMix64 stream: the same seed gives the
/// same order on every standard library.
void Shuffle(std::vector<std::string>& lines, uint64_t seed) {
  uint64_t state = seed;
  for (size_t i = lines.size(); i > 1; --i) {
    state = SplitMix64(state);
    std::swap(lines[i - 1], lines[state % i]);
  }
}

util::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::NotFoundError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string ClassKey(const query::QueryGraph& query) {
  std::string key = query.CanonicalCode();
  std::vector<uint32_t> labels;
  for (const query::QueryEdge& e : query.edges()) labels.push_back(e.label);
  std::sort(labels.begin(), labels.end());
  key += '|';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(labels[i]);
  }
  return key;
}

util::StatusOr<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                  size_t num_feeds, const Paths& paths) {
  const std::string stats = paths.bin_dir + "/cegraph_stats";
  const std::string log = paths.work_dir + "/cegraph_stats.log";
  const std::string seed_text = std::to_string(seed);

  std::vector<std::string> lines;
  for (const auto& [suite, instances] : spec.suites) {
    const std::string path = paths.work_dir + "/" + suite + ".wl";
    CEGRAPH_RETURN_IF_ERROR(RunTool(
        {stats, "workload", "--dataset", spec.dataset, "--suite", suite,
         "--instances", std::to_string(instances), "--seed", seed_text,
         "--out", path},
        log));
    auto text = ReadFile(path);
    if (!text.ok()) return text.status();
    std::istringstream in(*text);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') lines.push_back(line);
    }
  }
  Shuffle(lines, seed);

  Inputs inputs;
  std::unordered_set<std::string> seen;
  for (std::string& line : lines) {
    auto request = service::ParseRequestLine(line);
    if (!request.ok()) return request.status();
    PoolLine pool_line;
    pool_line.class_key = ClassKey(request->query);
    if (spec.distinct_classes > 0) {
      if (inputs.pool.size() == spec.distinct_classes) break;
      if (!seen.insert(pool_line.class_key).second) continue;
    }
    pool_line.text = std::move(line);
    pool_line.request = std::move(*request);
    inputs.pool.push_back(std::move(pool_line));
  }
  if (inputs.pool.size() < spec.distinct_classes) {
    return util::InternalError("only " + std::to_string(inputs.pool.size()) +
                               " distinct classes generated");
  }

  if (spec.snapshot) {
    const std::string pool_path = paths.work_dir + "/pool.wl";
    {
      std::ofstream out(pool_path);
      out << "# cegraph workload: template_name true_cardinality pattern\n";
      for (const PoolLine& line : inputs.pool) out << line.text << '\n';
      if (!out) return util::InternalError("cannot write " + pool_path);
    }
    inputs.snapshot_path = paths.work_dir + "/pool.snap";
    CEGRAPH_RETURN_IF_ERROR(RunTool(
        {stats, "build", "--dataset", spec.dataset, "--workload", pool_path,
         "--format", "arena", "--out", inputs.snapshot_path},
        log));
  }

  // One seeded stream of delta operations, cut into feeds of kFeedOps:
  // every feed is fresh, since a replayed feed would be a no-op fold.
  if (num_feeds > 0) {
    const std::string path = paths.work_dir + "/feeds.txt";
    CEGRAPH_RETURN_IF_ERROR(RunTool(
        {stats, "deltas", "--dataset", spec.dataset, "--random",
         std::to_string(kFeedOps * num_feeds), "--seed", seed_text, "--out",
         path},
        log));
    auto text = ReadFile(path);
    if (!text.ok()) return text.status();
    std::istringstream in(*text);
    std::string line;
    std::string feed;
    size_t ops = 0;
    while (std::getline(in, line) && inputs.feeds.size() < num_feeds) {
      if (line.empty() || line[0] == '#') continue;
      feed += line + '\n';
      if (++ops == kFeedOps) {
        inputs.feeds.push_back(std::move(feed));
        feed.clear();
        ops = 0;
      }
    }
    if (inputs.feeds.size() < num_feeds) {
      return util::InternalError("delta stream too short in " + path);
    }
  }
  return inputs;
}

util::StatusOr<Reference> ComputeReference(const WorkloadSpec& spec,
                                           const Inputs& inputs) {
  auto graph = graph::MakeDataset(spec.dataset);
  if (!graph.ok()) return graph.status();
  // Default context options: the daemon runs with the same.
  engine::EstimationEngine engine(*graph);
  auto suite = engine.Estimators(spec.estimators);
  if (!suite.ok()) return suite.status();

  Reference reference(inputs.pool.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < inputs.pool.size();) {
      for (const CardinalityEstimator* estimator : *suite) {
        auto estimate = estimator->Estimate(inputs.pool[i].request.query);
        reference[i].push_back({estimate.ok(), estimate.ok() ? *estimate : 0});
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < Nproc(); ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& thread : threads) thread.join();
  return reference;
}

bool MatchesReference(const std::vector<ReferenceResult>& reference,
                      const service::EstimateResponse& response) {
  if (response.results.size() != reference.size()) return false;
  for (size_t i = 0; i < reference.size(); ++i) {
    const service::EstimatorResult& served = response.results[i];
    if (served.ok != reference[i].ok) return false;
    if (served.ok && std::bit_cast<uint64_t>(served.estimate) !=
                         std::bit_cast<uint64_t>(reference[i].estimate)) {
      return false;
    }
  }
  return true;
}

}  // namespace cegraph::e2e
