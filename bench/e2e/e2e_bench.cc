// e2e_bench — one run of the end-to-end benchmark of cegraph_serve (see
// README.md; run.sh builds it and is the entry point).
//
//   e2e_bench --bin-dir DIR --work-dir DIR --workload NAME --seconds N
//             [--seed S] [--trace 0|1]
//
// It generates the workload's inputs from the seed with cegraph_stats,
// starts the real daemon, drives it over loopback TCP from this one
// process (no more threads or connections than nproc), checks the served
// answers against an in-process reference, and prints every metric by
// name with its unit. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exit status 0 iff
// every check passed.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "daemon.h"
#include "learn/feedback_store.h"
#include "loadgen.h"
#include "sample_stats.h"
#include "traced.h"
#include "workload.h"

namespace {

using namespace cegraph;
using namespace cegraph::e2e;

/// The measured seconds of an end-to-end run are split over fresh
/// daemons of about this long each, and fresh starts are spread between
/// them, so every metric samples the whole run rather than one stretch of
/// it: the host's speed drifts from second to second, and one daemon's
/// memory layout can make it slower or faster than the next.
constexpr double kSegmentSeconds = 2;
/// Short-lived daemons started before each segment; each times its
/// set-up, its first frame and (workloads without feeds in their traffic)
/// one kApplyDeltas fold of its own feed.
constexpr int kStartsPerSegment = 8;
/// Feeds the fresh starts cycle through. Each start folds a feed into a
/// fresh daemon, so reusing one across starts is not a replay.
constexpr size_t kStartFeeds = 40;
/// cold-classes sends its pool once per daemon, with fresh daemons until
/// --seconds of them have been measured, at least this many.
constexpr int kMinColdDaemons = 3;
/// churn: the open loop's schedule. A 100-op feed touches nearly every
/// label, so each fold evicts nearly all statistics and the reads that
/// follow re-derive them: those reads are the latency tail. At four folds
/// a second the tail came from a handful of folds and its p99 moved 2x
/// between runs of one seed; at eight a second it moved 8 %. At 300 req/s
/// over two connections the daemon keeps up; in trials it shed frames at
/// its pipeline cap from 500 req/s, and a third connection made the tail
/// worse.
constexpr double kOpenRate = 300;
constexpr int kOpenConnections = 2;
constexpr double kFeedEverySeconds = 0.125;
constexpr double kSwapEverySeconds = 1;
constexpr double kMaxLateMicros = 1000;
/// The in-process stage times must cover the untraced per-frame wall time
/// within this share.
constexpr double kCoverageTolerance = 0.10;

const std::vector<LayerMetric>& EndToEndMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"setup_s", "s"},           {"first_response_ms", "ms"},
      {"throughput_rps", "lines/s"}, {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},   {"qerror_p50", "ratio"},
      {"qerror_gmean", "ratio"},  {"fold_p50_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

/// Everything one run works from.
struct Run {
  const WorkloadSpec* spec = nullptr;
  Paths paths;
  Inputs inputs;
  Reference reference;
  double seconds = 0;
  bool trace = false;
};

bool Cold(const Run& run) { return run.spec->traffic == Traffic::kColdOnce; }
bool FeedsInTraffic(const Run& run) {
  return run.spec->traffic == Traffic::kOpenLoop;
}

/// Measured daemons of a run: an end-to-end run's segments, or the traced
/// run's deployed and exporter daemons, half the seconds each.
int MeasuredDaemons(const Run& run) {
  if (run.trace) return 2;
  return std::max(1, static_cast<int>(std::lround(run.seconds /
                                                  kSegmentSeconds)));
}

/// Feeds one open-loop phase of `seconds` schedules: one every
/// kFeedEverySeconds, none at its end.
size_t FeedsPerPhase(double seconds) {
  return static_cast<size_t>(std::ceil(seconds / kFeedEverySeconds));
}

size_t FeedsNeeded(const Run& run) {
  if (!FeedsInTraffic(run)) return kStartFeeds;
  const int daemons = MeasuredDaemons(run);
  return static_cast<size_t>(daemons) * FeedsPerPhase(run.seconds / daemons);
}

/// What one daemon did over its life.
struct DaemonResult {
  double setup_s = 0;
  double first_ms = 0;
  double rss_mib = 0;
  double throughput = 0;  ///< answered lines/s in the measured phase
  double measured_s = 0;  ///< length of the measured phase
  Tally all;              ///< every frame the daemon answered
  Tally measured;         ///< the measured phase only
  std::vector<double> late_us;
  std::vector<double> fold_ms;
  size_t swaps = 0;
  std::vector<size_t> sent;  ///< line indexes in dispatch order
  Layers layers;             ///< daemon-side layers (exporter runs)
};

int LinesPerFrame(const WorkloadSpec& spec) {
  return spec.traffic == Traffic::kClosedBatch ? kBatchLines : 1;
}

std::vector<std::string> DaemonArgv(const Run& run, bool exporter) {
  const WorkloadSpec& spec = *run.spec;
  std::string estimators;
  for (const std::string& name : spec.estimators) {
    estimators += (estimators.empty() ? "" : ",") + name;
  }
  std::string dataset = spec.dataset;
  if (!run.inputs.snapshot_path.empty()) {
    dataset += "@" + run.inputs.snapshot_path;
  }
  std::vector<std::string> argv = {
      run.paths.bin_dir + "/cegraph_serve", "--dataset", dataset,
      "--port", "0", "--workers", std::to_string(Nproc()),
      "--compact-trigger", "0", "--estimators", estimators};
  if (spec.feedback) argv.insert(argv.end(), {"--feedback", "on"});
  if (exporter) argv.insert(argv.end(), {"--metrics-port", "0"});
  return argv;
}

/// Which answered lines are checked bit for bit against the reference,
/// given the lines a daemon is sent before its measured phase (`window`):
/// every line, except that with feedback on only lines whose class the
/// daemon receives at most min_samples times in the window (so no learned
/// correction can apply yet), and that churn checks only answers from the
/// initial state (epoch 0, version 0).
CheckRule MakeCheck(const Run& run, const std::vector<size_t>& window) {
  if (FeedsInTraffic(run)) {
    return [](size_t, const service::EstimateResponse& response) {
      return response.epoch == 0 && response.state_version == 0;
    };
  }
  if (!run.spec->feedback) {
    return [](size_t, const service::EstimateResponse&) { return true; };
  }
  const uint64_t gate = learn::FeedbackOptions{}.min_samples;
  std::unordered_map<std::string, uint64_t> sends;
  for (size_t line : window) ++sends[run.inputs.pool[line].class_key];
  auto checked = std::make_shared<std::vector<bool>>(run.inputs.pool.size());
  for (size_t i = 0; i < checked->size(); ++i) {
    const auto it = sends.find(run.inputs.pool[i].class_key);
    (*checked)[i] = it != sends.end() && it->second <= gate;
  }
  return [checked](size_t line, const service::EstimateResponse&) {
    return (*checked)[line];
  };
}

/// The lines of the first frame a fresh daemon is sent.
std::vector<size_t> FirstFrame(const Run& run, uint64_t frame) {
  return FrameLines(frame, LinesPerFrame(*run.spec), run.inputs.pool.size());
}

/// Starts a daemon, times its set-up, and sends it exactly `first` as one
/// frame, timing the answer.
util::StatusOr<std::unique_ptr<Daemon>> StartAndFirst(
    const Run& run, bool exporter, const std::vector<size_t>& first,
    const LineSink& sink, DaemonResult* result) {
  const std::string log = run.paths.work_dir + "/cegraph_serve.log";
  auto daemon = Daemon::Start(DaemonArgv(run, exporter), log);
  if (!daemon.ok()) return daemon.status();
  result->setup_s = (*daemon)->setup_seconds();
  ClosedLoop loop;
  loop.port = (*daemon)->port();
  loop.batch = LinesPerFrame(*run.spec) > 1;
  loop.lines = first;
  double elapsed = 0;
  const Tally tally = RunClosedLoop(loop, sink, &elapsed);
  if (tally.frame_micros.size() != 1) {
    return util::InternalError("the first frame of a fresh daemon got no "
                               "answer");
  }
  result->first_ms = tally.frame_micros.front() / 1e3;
  result->all.Merge(tally);
  result->sent.insert(result->sent.end(), first.begin(), first.end());
  return daemon;
}

/// A fresh daemon that times set-up and its first frame, then, unless the
/// workload's traffic carries feeds, one fold of feed `start`.
util::StatusOr<DaemonResult> ProbeStart(const Run& run, uint64_t start) {
  DaemonResult result;
  const std::vector<size_t> first = FirstFrame(run, start);
  LineSink sink{&run.inputs, &run.reference, MakeCheck(run, first), false};
  auto daemon = StartAndFirst(run, false, first, sink, &result);
  if (!daemon.ok()) return daemon.status();
  if (!FeedsInTraffic(run)) {
    const std::vector<std::string>& feeds = run.inputs.feeds;
    result.fold_ms = ProbeFolds((*daemon)->port(),
                                {feeds[start % feeds.size()]}, &result.all);
  }
  CEGRAPH_RETURN_IF_ERROR((*daemon)->Shutdown());
  return result;
}

/// A fresh daemon through the workload: first frame `frame`, warm-up
/// pass, then the measured phase of `seconds` (cold-classes: the rest of
/// the pool once; churn: the frames after `frame`, with `feeds` folded
/// in). With `exporter` the daemon runs --metrics-port 0 and is scraped
/// around the measured phase.
util::StatusOr<DaemonResult> FullDaemon(const Run& run, uint64_t frame,
                                        double seconds, bool exporter,
                                        const std::vector<std::string>& feeds) {
  const WorkloadSpec& spec = *run.spec;
  const size_t n = run.inputs.pool.size();
  DaemonResult result;
  // cold-classes starts with line 0 and then sends the rest once.
  const bool cold = Cold(run);
  const std::vector<size_t> first = FirstFrame(run, cold ? 0 : frame);
  ClosedLoop pass;
  pass.connections = Nproc();
  pass.batch = LinesPerFrame(spec) > 1;
  for (size_t i = cold ? 1 : 0; i < n; ++i) pass.lines.push_back(i);
  std::vector<size_t> window = first;
  if (spec.warmup) {
    window.insert(window.end(), pass.lines.begin(), pass.lines.end());
  }
  LineSink checked{&run.inputs, &run.reference, MakeCheck(run, window),
                   false};
  auto daemon = StartAndFirst(run, exporter, first, checked, &result);
  if (!daemon.ok()) return daemon.status();
  pass.port = (*daemon)->port();
  double elapsed = 0;
  if (spec.warmup) {
    result.all.Merge(RunClosedLoop(pass, checked, &elapsed));
    result.sent.insert(result.sent.end(), pass.lines.begin(),
                       pass.lines.end());
  }

  Scrape before;
  if (exporter) {
    auto scraped = ScrapeMetrics((*daemon)->metrics_port());
    if (!scraped.ok()) return scraped.status();
    before = std::move(*scraped);
  }
  // The measured phase: only batch-feedback stops checking (its learned
  // corrections now apply).
  LineSink scored = checked;
  scored.score = true;
  if (spec.feedback) scored.check = nullptr;
  if (FeedsInTraffic(run)) {
    OpenLoop loop;
    loop.port = pass.port;
    loop.first_frame = frame + 1;
    loop.rate_per_second = kOpenRate;
    loop.connections = kOpenConnections;
    loop.seconds = seconds;
    loop.feed_every_seconds = kFeedEverySeconds;
    loop.swap_every_seconds = kSwapEverySeconds;
    loop.feeds = &feeds;
    loop.swap_path = run.inputs.snapshot_path;
    OpenLoopResult open = RunOpenLoop(loop, scored);
    result.measured = std::move(open.tally);
    result.measured_s = open.elapsed;
    result.late_us = std::move(open.late_micros);
    result.fold_ms = std::move(open.fold_millis);
    result.swaps = open.swap_millis.size();
    for (uint64_t f = 0; f < result.measured.frames; ++f) {
      result.sent.push_back(static_cast<size_t>((loop.first_frame + f) % n));
    }
  } else {
    if (!cold) pass.seconds = seconds;
    result.measured = RunClosedLoop(pass, scored, &result.measured_s);
    for (uint64_t f = 0; f < result.measured.frames; ++f) {
      const std::vector<size_t> lines =
          cold ? std::vector<size_t>{pass.lines[f]}
               : FrameLines(f, LinesPerFrame(spec), n);
      result.sent.insert(result.sent.end(), lines.begin(), lines.end());
    }
  }
  result.throughput =
      static_cast<double>(result.measured.answered) / result.measured_s;
  if (exporter) {
    auto after = ScrapeMetrics((*daemon)->metrics_port());
    if (!after.ok()) return after.status();
    ClientView client;
    client.mean_frame_micros = Mean(result.measured.frame_micros);
    client.lines = static_cast<double>(result.measured.answered);
    AddDaemonLayers(before, *after, client, &result.layers);
  }
  result.rss_mib = (*daemon)->PeakRssMib();
  result.all.Merge(result.measured);
  CEGRAPH_RETURN_IF_ERROR((*daemon)->Shutdown());
  return result;
}

/// The feeds measured daemon `k` folds in (churn only): its own slice.
std::vector<std::string> FeedsOf(const Run& run, int k) {
  if (!FeedsInTraffic(run)) return {};
  const size_t per = run.inputs.feeds.size() /
                     static_cast<size_t>(MeasuredDaemons(run));
  const auto begin =
      run.inputs.feeds.begin() + static_cast<std::ptrdiff_t>(per * k);
  return {begin, begin + static_cast<std::ptrdiff_t>(per)};
}

/// Share of sent lines whose class the daemon had already been sent.
double RepeatShare(const Run& run, const std::vector<size_t>& sent) {
  std::unordered_set<std::string> seen;
  size_t repeats = 0;
  for (size_t line : sent) {
    if (!seen.insert(run.inputs.pool[line].class_key).second) ++repeats;
  }
  return sent.empty() ? 0
                      : static_cast<double>(repeats) /
                            static_cast<double>(sent.size());
}

struct Outcome {
  bool correct = true;
  Tally all;
  Layers metrics;
  std::vector<std::string> notes;
};

void Note(Outcome* outcome, const char* format, auto... args) {
  char line[512];
  std::snprintf(line, sizeof line, format, args...);
  outcome->notes.emplace_back(line);
}

/// The checks every run makes: every line answered, every checked line
/// equal to the reference, and something checked at all.
void CheckTally(Outcome* outcome) {
  const Tally& all = outcome->all;
  Note(outcome,
       "checked %" PRIu64 " of %" PRIu64 " answered lines against the "
       "reference: %" PRIu64 " mismatched",
       all.compared, all.answered, all.mismatched);
  Note(outcome,
       "failed_frac = %.6g (%" PRIu64 " failed, %" PRIu64 " refused, %" PRIu64
       " mismatched, %" PRIu64 " control failed of %" PRIu64 " attempted)",
       all.attempted() > 0 ? static_cast<double>(all.failures()) /
                                 static_cast<double>(all.attempted())
                           : 0.0,
       all.failed, all.refused, all.mismatched, all.control_failed,
       all.attempted());
  if (all.failures() > 0 || all.compared == 0) outcome->correct = false;
}

/// An open-loop run whose generator sent late is invalid: its latencies
/// would describe the generator.
void CheckLateness(const std::vector<double>& late_us, Outcome* outcome) {
  if (late_us.empty()) return;
  const double p99 = Quantile(late_us, 0.99);
  Note(outcome, "open loop sent %.1f us late at p99 (at most %.0f allowed)",
       p99, kMaxLateMicros);
  if (p99 > kMaxLateMicros) outcome->correct = false;
}

util::StatusOr<Outcome> RunEndToEnd(const Run& run) {
  Outcome outcome;
  std::vector<double> setups;
  std::vector<double> firsts;
  std::vector<double> folds;
  std::vector<double> throughputs;
  std::vector<double> rss;
  std::vector<double> late;
  Tally pooled;
  size_t swaps = 0;
  double measured_s = 0;
  uint64_t start = 0;
  // Each measured daemon's traffic starts in the pool where the previous
  // one's ended, so churn's folds fall before other reads in each segment
  // rather than before the same ones every time.
  uint64_t frame = 0;
  const int segments = MeasuredDaemons(run);
  for (int k = 0; Cold(run) ? k < kMinColdDaemons || measured_s < run.seconds
                            : k < segments;
       ++k) {
    for (int p = 0; p < kStartsPerSegment; ++p, ++start) {
      auto probe = ProbeStart(run, start);
      if (!probe.ok()) return probe.status();
      setups.push_back(probe->setup_s);
      firsts.push_back(probe->first_ms);
      folds.insert(folds.end(), probe->fold_ms.begin(), probe->fold_ms.end());
      outcome.all.Merge(probe->all);
    }
    auto full = FullDaemon(run, frame, run.seconds / segments, false,
                           FeedsOf(run, k));
    if (!full.ok()) return full.status();
    frame += 1 + full->measured.frames;
    setups.push_back(full->setup_s);
    firsts.push_back(full->first_ms);
    throughputs.push_back(full->throughput);
    rss.push_back(full->rss_mib);
    folds.insert(folds.end(), full->fold_ms.begin(), full->fold_ms.end());
    late.insert(late.end(), full->late_us.begin(), full->late_us.end());
    swaps += full->swaps;
    measured_s += full->measured_s;
    pooled.Merge(full->measured);
    outcome.all.Merge(full->all);
  }

  const std::vector<double>& latency = pooled.frame_micros;
  Layers& m = outcome.metrics;
  m["setup_s"] = Median(setups);
  m["first_response_ms"] = Median(firsts);
  m["throughput_rps"] = Median(throughputs);
  m["latency_p50_us"] = Quantile(latency, 0.50);
  m["latency_p99_us"] = Quantile(latency, 0.99);
  const std::vector<double> qerrors = pooled.QErrors();
  m["qerror_p50"] = Quantile(qerrors, 0.50);
  m["qerror_gmean"] = GeometricMean(qerrors);
  m["fold_p50_ms"] = Median(folds);
  m["peak_rss_mb"] = Median(rss);

  Note(&outcome,
       "%zu fresh starts, %zu measured daemons over %.1f s; %zu frames "
       "timed (p99 has %zu beyond), %zu q-error samples (p90 %.6g), %zu "
       "folds, %zu swaps",
       setups.size(), throughputs.size(), measured_s, latency.size(),
       latency.size() / 100, qerrors.size(), Quantile(qerrors, 0.90),
       folds.size(), swaps);
  if (latency.size() < 1000 || folds.empty() || qerrors.empty()) {
    Note(&outcome, "too few samples for the metrics above");
    outcome.correct = false;
  }
  CheckLateness(late, &outcome);
  CheckTally(&outcome);
  return outcome;
}

util::StatusOr<Outcome> RunTraced(const Run& run) {
  const WorkloadSpec& spec = *run.spec;
  Outcome outcome;
  // Deployed and exporter daemons split the run; the exporter one is
  // scraped around its measured phase.
  auto plain = FullDaemon(run, 0, run.seconds / 2, false, FeedsOf(run, 0));
  if (!plain.ok()) return plain.status();
  auto traced = FullDaemon(run, 0, run.seconds / 2, true, FeedsOf(run, 1));
  if (!traced.ok()) return traced.status();
  outcome.all.Merge(plain->all);
  outcome.all.Merge(traced->all);

  Layers& m = outcome.metrics;
  m = traced->layers;
  CEGRAPH_RETURN_IF_ERROR(
      AddInProcessLayers(spec, run.inputs, run.paths.work_dir, &m));
  m["loadgen.late_p99_us"] = Quantile(plain->late_us, 0.99);
  m["workload.repeat_share"] = RepeatShare(run, plain->sent);
  // Mean frame latency rather than throughput: churn's rate is fixed.
  const double plain_micros = Mean(plain->measured.frame_micros);
  m["trace.overhead_frac"] =
      plain_micros > 0
          ? Mean(traced->measured.frame_micros) / plain_micros - 1
          : 0;

  const double coverage = m["trace.stage_sum_frac"];
  Note(&outcome,
       "in-process stages sum to %.4f of the untraced per-frame wall time "
       "(within %.2f required)",
       coverage, kCoverageTolerance);
  if (std::fabs(coverage - 1) > kCoverageTolerance) outcome.correct = false;
  CheckLateness(plain->late_us, &outcome);
  CheckTally(&outcome);
  return outcome;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --bin-dir DIR --work-dir DIR --workload "
               "NAME --seconds N [--seed S] [--trace 0|1]\nworkloads:");
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  uint64_t seed = 1;
  std::string work_root;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--bin-dir") {
      run.paths.bin_dir = value;
    } else if (flag == "--work-dir") {
      work_root = value;
    } else if (flag == "--workload") {
      run.spec = FindWorkload(value);
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || run.spec == nullptr || run.paths.bin_dir.empty() ||
      work_root.empty() || !(run.seconds > 0)) {
    return Usage();
  }
  const WorkloadSpec& spec = *run.spec;

  // A fresh directory per run, removed when it ends.
  run.paths.work_dir = work_root + "/" + spec.name + "-" +
                       std::to_string(seed) + (run.trace ? "-traced" : "");
  std::error_code error;
  std::filesystem::remove_all(run.paths.work_dir, error);
  std::filesystem::create_directories(run.paths.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", run.paths.work_dir.c_str());
    return 1;
  }

  auto inputs = MakeInputs(spec, seed, FeedsNeeded(run), run.paths);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  run.inputs = std::move(*inputs);
  auto reference = ComputeReference(spec, run.inputs);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  run.reference = std::move(*reference);
  std::printf("workload %s, seed %" PRIu64 ", %zu pool lines, %d threads; "
              "%s run of %.0f s\n",
              spec.name.c_str(), seed, run.inputs.pool.size(), Nproc(),
              run.trace ? "traced" : "end-to-end", run.seconds);

  auto outcome = run.trace ? RunTraced(run) : RunEndToEnd(run);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::filesystem::remove_all(run.paths.work_dir, error);

  for (const std::string& note : outcome->notes) {
    std::printf("%s\n", note.c_str());
  }
  std::string json;
  for (const LayerMetric& metric :
       run.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = outcome->metrics.find(metric.name);
    if (it == outcome->metrics.end() || !std::isfinite(it->second)) {
      std::printf("metric %s missing\n", metric.name.c_str());
      outcome->correct = false;
      continue;
    }
    std::printf("%-34s %14.6g %s\n", metric.name.c_str(), it->second,
                metric.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    json += (json.empty() ? "" : ", ") + ("\"" + metric.name + "\": ") +
            "{\"value\": " + value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              outcome->correct ? "true" : "false",
              outcome->all.attempted(), outcome->all.failures(),
              json.c_str());
  return outcome->correct ? 0 : 1;
}
