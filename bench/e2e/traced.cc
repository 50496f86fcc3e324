#include "traced.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "dynamic/delta_io.h"
#include "engine/engine.h"
#include "graph/datasets.h"
#include "harness/qerror.h"
#include "learn/feedback_store.h"
#include "obs/metrics.h"
#include "obs/scorecard.h"
#include "obs/stage_trace.h"
#include "sample_stats.h"
#include "service/service.h"
#include "service/wire.h"

namespace cegraph::e2e {

namespace {

using Clock = std::chrono::steady_clock;
namespace wire = service::wire;

/// Every estimator either suite serves, so estimators.* is reported on
/// every workload.
const std::vector<std::string> kEstimatorUnion = {
    "max-hop-max", "all-hops-avg", "min-hop-min", "molp", "cbs", "cs"};

/// Warm workloads replay their frames, on both in-process services
/// together, for this long (at least one pass).
constexpr double kReplaySeconds = 2.0;
/// cold-classes replays only its first lines, once: each is a new class.
constexpr size_t kColdReplayLines = 1000;
/// Frames per block: the untraced and the traced service take turns, so
/// drift on the machine reaches both alike.
constexpr size_t kBlockFrames = 32;
/// Lines the direct per-layer calls sample.
constexpr size_t kLayerLines = 1000;
/// Fresh CEG builds and statistics fills timed.
constexpr size_t kBuildClasses = 200;
constexpr size_t kFillQueries = 60;
/// Repeats of the whole-structure timings (loads, saves, swaps).
constexpr int kRepeats = 5;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// ---- Prometheus text ----

std::vector<const Scrape::Series*> Find(const Scrape& scrape,
                                        const std::string& name,
                                        const std::string& filter) {
  std::vector<const Scrape::Series*> out;
  auto [begin, end] = scrape.series.equal_range(name);
  for (auto it = begin; it != end; ++it) {
    if (it->second.labels.find(filter) != std::string::npos) {
      out.push_back(&it->second);
    }
  }
  return out;
}

double Sum(const Scrape& scrape, const std::string& name,
           const std::string& filter) {
  double total = 0;
  for (const Scrape::Series* series : Find(scrape, name, filter)) {
    total += series->value;
  }
  return total;
}

double Delta(const Scrape& before, const Scrape& after,
             const std::string& name, const std::string& filter) {
  return Sum(after, name, filter) - Sum(before, name, filter);
}

/// Cumulative bucket counts by upper edge. The exporter skips empty
/// interior buckets, so an edge missing from one page holds the count of
/// the nearest edge below it.
std::map<double, double> Buckets(const Scrape& scrape,
                                 const std::string& name,
                                 const std::string& filter) {
  std::map<double, double> out;
  for (const Scrape::Series* series : Find(scrape, name + "_bucket", filter)) {
    const size_t at = series->labels.find("le=\"");
    if (at == std::string::npos) continue;
    const std::string le = series->labels.substr(at + 4);
    out[le.rfind("+Inf", 0) == 0 ? std::numeric_limits<double>::infinity()
                                 : std::strtod(le.c_str(), nullptr)] =
        series->value;
  }
  return out;
}

double CountAt(const std::map<double, double>& buckets, double edge) {
  auto it = buckets.upper_bound(edge);
  return it == buckets.begin() ? 0 : std::prev(it)->second;
}

/// The p-quantile of what a histogram recorded between two scrapes, as
/// the upper edge of the bucket holding it (obs::HistogramSnapshot's
/// rule).
double HistogramQuantile(const Scrape& before, const Scrape& after,
                         const std::string& name, const std::string& filter,
                         double p) {
  const auto b = Buckets(before, name, filter);
  const auto a = Buckets(after, name, filter);
  std::set<double> edges;
  for (const auto& [edge, count] : a) edges.insert(edge);
  const double inf = std::numeric_limits<double>::infinity();
  const double total = CountAt(a, inf) - CountAt(b, inf);
  if (total <= 0) return 0;
  for (const double edge : edges) {
    if (CountAt(a, edge) - CountAt(b, edge) >= p * total) return edge;
  }
  return 0;
}

// ---- in-process serving, as the daemon's worker does it ----

struct Service {
  std::unique_ptr<service::EstimationService> service;

  wire::Response Dispatch(const wire::Request& request) const {
    wire::Response response;
    response.type = request.type;
    if (request.type == wire::MessageType::kBatchEstimate) {
      auto batch = service->EstimateBatch(request.lines);
      if (batch.ok()) {
        response.batch = std::move(*batch);
      } else {
        response.status = batch.status();
      }
    } else {
      auto estimate = service->EstimateLine(request.text);
      if (estimate.ok()) {
        response.estimate = std::move(*estimate);
      } else {
        response.status = estimate.status();
      }
    }
    return response;
  }

  /// Decode, serve and encode one frame with nothing but an outer clock.
  double ServeUntraced(const std::string& payload) const {
    const auto t0 = Clock::now();
    auto request = wire::DecodeRequest(payload);
    if (request.ok()) (void)wire::EncodeResponse(Dispatch(*request));
    return MicrosSince(t0);
  }
};

/// Per-frame stage times of the traced replay, summed over frames.
struct Stages {
  double decode_request = 0;
  double parse_line = 0;
  double admission = 0;
  double acquire_state = 0;
  double estimate = 0;
  double bookkeeping = 0;
  double encode_response = 0;
  double decode_response = 0;
  double response_bytes = 0;
  size_t frames = 0;
  size_t failed = 0;

  double Covered() const {
    return decode_request + parse_line + admission + acquire_state +
           estimate + bookkeeping + encode_response;
  }
};

/// Bench-owned copies of what the service records for each answered
/// line after its estimate — the scorecard and, with feedback on, the
/// feedback store — fed the same samples, so they evolve as the service's
/// own do and the bench's clock can time each call.
struct Replica {
  /// Built beside the service, before it answers anything.
  Replica(const service::ServiceOptions& options,
          const learn::FeedbackStore& live)
      : live(live),
        store(live.options()),
        card(options.scorecard),
        learning(options.feedback == service::FeedbackMode::kOn) {
    store.SetStamp(live.stamp());
  }

  const learn::FeedbackStore& live;
  learn::FeedbackStore store;
  obs::Scorecard card;
  const bool learning;
  /// Per line: CanonicalCode on a fresh parse; per estimator: the serve
  /// path's correction lookup, a scorecard record, a feedback record.
  std::vector<double> class_code_us;
  std::vector<double> lookup_us;
  std::vector<double> scorecard_us;
  std::vector<double> record_us;

  /// Replays the calls the service makes for `fresh` (a parse of the line
  /// it answered with `response`) and returns the micros of those it
  /// makes after its estimate: the class key, the scorecard records and,
  /// with feedback on, the feedback records.
  double Replay(const service::EstimateRequest& fresh,
                const service::EstimateResponse& response) {
    const double suite = static_cast<double>(response.results.size());
    // By the time the service keys the class after its estimate, the
    // canonical code is memoised on the query (by the estimators' CEG
    // lookups, or with feedback on by the serve path's class key), so its
    // first computation is obs.class_code_us and not bookkeeping here.
    auto t0 = Clock::now();
    (void)fresh.query.CanonicalCode();
    class_code_us.push_back(MicrosSince(t0));
    t0 = Clock::now();
    const std::string code = ClassKey(fresh.query);
    const double key_micros = MicrosSince(t0);

    t0 = Clock::now();
    for (const service::EstimatorResult& result : response.results) {
      (void)live.CorrectionFor(
          learn::FeedbackStore::ClassKey(result.name, code));
    }
    lookup_us.push_back(MicrosSince(t0) / suite);
    if (!response.has_truth) return 0;  // nothing is recorded

    const std::string_view display =
        fresh.template_name.empty() ? std::string_view(fresh.pattern)
                                    : std::string_view(fresh.template_name);
    t0 = Clock::now();
    const int64_t now_sec = obs::WindowedHistogram::NowSec();
    for (const service::EstimatorResult& result : response.results) {
      if (!result.ok || !harness::UsableQError(result.qerror)) continue;
      obs::ScorecardSample sample;
      sample.class_key = code;
      sample.display = display;
      sample.line = fresh.pattern;
      sample.estimator = result.name;
      sample.qerror = result.qerror;
      sample.estimate = result.estimate;
      sample.truth = response.truth;
      card.RecordAt(sample, now_sec);
    }
    const double scorecard = MicrosSince(t0);
    scorecard_us.push_back(scorecard / suite);

    // Recorded whatever the feedback mode, so learn.record_us prices the
    // call on every workload; it is service time only when learning.
    t0 = Clock::now();
    for (const service::EstimatorResult& result : response.results) {
      if (!result.ok ||
          !harness::UsableQError(result.raw_estimate, response.truth)) {
        continue;
      }
      (void)store.Record(learn::FeedbackStore::ClassKey(result.name, code),
                         display, result.raw_estimate, response.truth);
    }
    const double record = MicrosSince(t0);
    record_us.push_back(record / suite);
    return key_micros + scorecard + (learning ? record : 0);
  }
};

/// The same frame with every stage timed: the wire codecs and the line
/// parse by the bench's clock; admission and state acquisition by the
/// obs::StageTrace the service records into; the estimators by their own
/// micros; bookkeeping as the rest of the service's own estimate clock
/// (class key, correction lookups, q-errors) plus the replayed calls it
/// makes after it. Whatever the service spends outside these is the
/// untimed remainder the coverage check bounds.
void ServeTraced(const Service& served, Replica& replica,
                 const std::string& payload, Stages* stages) {
  auto t0 = Clock::now();
  auto request = wire::DecodeRequest(payload);
  stages->decode_request += MicrosSince(t0);
  if (!request.ok()) {
    ++stages->failed;
    return;
  }
  const std::vector<std::string> single = {request->text};
  std::vector<service::EstimateRequest> fresh;
  for (const std::string& line :
       request->type == wire::MessageType::kBatchEstimate ? request->lines
                                                           : single) {
    t0 = Clock::now();
    auto parsed = service::ParseRequestLine(line);
    stages->parse_line += MicrosSince(t0);
    if (!parsed.ok()) {
      ++stages->failed;
      return;
    }
    fresh.push_back(std::move(*parsed));
  }
  obs::StageTrace trace;
  wire::Response response;
  {
    obs::StageTrace::Scope scope(&trace);
    response = served.Dispatch(*request);
  }
  if (!response.status.ok()) ++stages->failed;
  std::vector<const service::EstimateResponse*> answers;
  if (request->type == wire::MessageType::kBatchEstimate) {
    for (const service::BatchEstimateItem& item : response.batch) {
      answers.push_back(&item.estimate);
    }
  } else {
    answers.push_back(&response.estimate);
  }
  if (answers.size() != fresh.size()) {
    ++stages->failed;
    return;
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    const service::EstimateResponse& answer = *answers[i];
    double estimators = 0;
    for (const service::EstimatorResult& result : answer.results) {
      estimators += result.micros;
    }
    stages->estimate += estimators;
    stages->bookkeeping +=
        answer.total_micros - estimators + replica.Replay(fresh[i], answer);
  }
  t0 = Clock::now();
  const std::string bytes = wire::EncodeResponse(response);
  stages->encode_response += MicrosSince(t0);
  t0 = Clock::now();
  if (!wire::DecodeResponse(bytes).ok()) ++stages->failed;
  stages->decode_response += MicrosSince(t0);

  stages->admission += trace.micros(obs::Stage::kAdmission);
  stages->acquire_state += trace.micros(obs::Stage::kAcquireState);
  stages->response_bytes += static_cast<double>(bytes.size());
  ++stages->frames;
}

util::StatusOr<std::vector<dynamic::EdgeDelta>> ParseFeed(
    const std::string& feed) {
  std::istringstream in(feed);
  return dynamic::ReadDeltaText(in);
}

}  // namespace

util::StatusOr<Scrape> ScrapeMetrics(int port) {
  auto fd = wire::DialTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  std::string page;
  if (::write(*fd, get.data(), get.size()) ==
      static_cast<ssize_t>(get.size())) {
    char chunk[65536];
    ssize_t n;
    while ((n = ::read(*fd, chunk, sizeof chunk)) > 0) {
      page.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(*fd);
  const size_t body = page.find("\r\n\r\n");
  if (body == std::string::npos) {
    return util::InternalError("no /metrics page on port " +
                               std::to_string(port));
  }
  Scrape scrape;
  std::istringstream in(page.substr(body + 4));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    const size_t brace = line.find('{');
    const size_t name_end = std::min(brace, space);
    if (space == std::string::npos) continue;
    Scrape::Series series;
    if (brace != std::string::npos && brace < space) {
      series.labels = line.substr(brace + 1, line.rfind('}') - brace - 1);
    }
    series.value = std::strtod(line.c_str() + space + 1, nullptr);
    scrape.series.emplace(line.substr(0, name_end), std::move(series));
  }
  return scrape;
}

void AddDaemonLayers(const Scrape& before, const Scrape& after,
                     const ClientView& client, Layers* layers) {
  Layers& out = *layers;
  const std::string stages = "cegraph_server_stage_micros";
  auto stage = [](const char* name) {
    return std::string("stage=\"") + name + "\"";
  };
  out["server.queue_wait_p50_us"] =
      HistogramQuantile(before, after, stages, stage("queue_wait"), 0.50);
  out["server.queue_wait_p99_us"] =
      HistogramQuantile(before, after, stages, stage("queue_wait"), 0.99);
  out["server.frame_decode_p50_us"] =
      HistogramQuantile(before, after, stages, stage("parse"), 0.50);
  out["server.encode_p50_us"] =
      HistogramQuantile(before, after, stages, stage("encode"), 0.50);
  out["server.write_p50_us"] =
      HistogramQuantile(before, after, stages, stage("write"), 0.50);
  const double bytes =
      Delta(before, after, "cegraph_server_bytes_in_total", "") +
      Delta(before, after, "cegraph_server_bytes_out_total", "");
  out["server.bytes_per_line"] = client.lines > 0 ? bytes / client.lines : 0;
  out["server.shed_total"] =
      Delta(before, after, "cegraph_server_shed_total", "");
  out["server.backpressure_events"] =
      Delta(before, after, "cegraph_server_backpressure_events_total", "");

  // The daemon-side split: how much of the client's round trip the
  // server's seven stages account for, per frame. The rest is loopback,
  // the event loop and the client itself.
  const double requests =
      Delta(before, after, "cegraph_server_requests_total", "");
  double staged = 0;
  for (const char* name : {"queue_wait", "parse", "admission",
                           "acquire_state", "estimate", "encode", "write"}) {
    staged += Delta(before, after, stages + "_sum", stage(name));
  }
  out["trace.unattributed_frac"] =
      requests > 0 && client.mean_frame_micros > 0
          ? 1 - staged / requests / client.mean_frame_micros
          : 0;

  // Cache counters belong to the serving state: when a fold or swap
  // replaced it during the load, its counters started afresh and the
  // after-page alone covers the new state. No lookups reads as 1 (nothing
  // missed); stats.markov_lookups tells the two apart.
  auto lookups = [&](const std::string& cache, double* hits) {
    const std::string h = "cegraph_cache_hits_total";
    const std::string m = "cegraph_cache_misses_total";
    const bool replaced = Sum(after, h, cache) < Sum(before, h, cache) ||
                          Sum(after, m, cache) < Sum(before, m, cache);
    const Scrape empty;
    const Scrape& base = replaced ? empty : before;
    *hits = Delta(base, after, h, cache);
    return *hits + Delta(base, after, m, cache);
  };
  auto hit_ratio = [&](const std::string& cache) {
    double hits = 0;
    const double total = lookups(cache, &hits);
    return total > 0 ? hits / total : 1;
  };
  out["engine.ceg_hit_ratio"] = hit_ratio("cache=\"ceg-cache\"");
  out["stats.markov_hit_ratio"] = hit_ratio("cache=\"markov(");
  out["stats.degree_hit_ratio"] = hit_ratio("cache=\"degree-");
  double markov_hits = 0;
  out["stats.markov_lookups"] = lookups("cache=\"markov(", &markov_hits);
  out["engine.resident_entries"] = Sum(after, "cegraph_cache_entries", "");
}

util::Status AddInProcessLayers(const WorkloadSpec& spec,
                                const Inputs& inputs,
                                const std::string& work_dir,
                                Layers* layers) {
  Layers& out = *layers;
  auto made = graph::MakeDataset(spec.dataset);
  if (!made.ok()) return made.status();
  const auto graph = std::make_shared<const graph::Graph>(std::move(*made));

  // The daemon's options: cegraph_serve --estimators --feedback
  // --compact-trigger 0 [--dataset NAME@SNAPSHOT].
  service::ServiceOptions options;
  options.estimators = spec.estimators;
  options.feedback = spec.feedback ? service::FeedbackMode::kOn
                                   : service::FeedbackMode::kOff;
  options.compact_trigger_ops = 0;
  options.initial_snapshot = inputs.snapshot_path;
  options.metrics_label = spec.dataset;
  Service untraced;
  Service traced;
  for (Service* served : {&untraced, &traced}) {
    auto created = service::EstimationService::Create(graph, options);
    if (!created.ok()) return created.status();
    served->service = std::move(*created);
  }
  // The feedback store is shared by every state the service publishes;
  // holding the first state keeps it alive for the replica.
  const std::shared_ptr<const service::ServingState> initial =
      traced.service->AcquireState();
  Replica replica(options, *initial->feedback);

  // ---- the replay: frames as the load generator sends them ----
  const bool cold = spec.traffic == Traffic::kColdOnce;
  const size_t per_frame =
      spec.traffic == Traffic::kClosedBatch ? kBatchLines : 1;
  const size_t lines =
      cold ? std::min(inputs.pool.size(), kColdReplayLines)
           : inputs.pool.size();
  std::vector<std::string> payloads;
  for (size_t first = 0; first < lines; first += per_frame) {
    wire::Request request;
    if (per_frame > 1) {
      request.type = wire::MessageType::kBatchEstimate;
      for (size_t i = first; i < std::min(lines, first + per_frame); ++i) {
        request.lines.push_back(inputs.pool[i].text);
      }
    } else {
      request.type = wire::MessageType::kEstimate;
      request.text = inputs.pool[first].text;
    }
    payloads.push_back(wire::EncodeRequest(request));
  }
  Stages stages;
  if (spec.warmup) {
    for (const std::string& payload : payloads) {
      untraced.ServeUntraced(payload);
      ServeTraced(traced, replica, payload, &stages);
    }
    if (stages.failed > 0) {
      return util::InternalError("in-process warm-up: frames failed");
    }
    stages = Stages{};
  }
  std::vector<double> walls;
  const auto replay_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kReplaySeconds));
  do {
    for (size_t block = 0; block < payloads.size(); block += kBlockFrames) {
      const size_t end = std::min(payloads.size(), block + kBlockFrames);
      for (size_t f = block; f < end; ++f) {
        walls.push_back(untraced.ServeUntraced(payloads[f]));
      }
      for (size_t f = block; f < end; ++f) {
        ServeTraced(traced, replica, payloads[f], &stages);
      }
    }
  } while (!cold && Clock::now() < replay_end);
  if (stages.failed > 0) {
    return util::InternalError("in-process replay: " +
                               std::to_string(stages.failed) +
                               " frames failed");
  }
  untraced.service.reset();

  const double frames = static_cast<double>(stages.frames);
  out["wire.decode_request_us"] = stages.decode_request / frames;
  out["wire.encode_response_us"] = stages.encode_response / frames;
  out["wire.decode_response_us"] = stages.decode_response / frames;
  out["wire.response_bytes"] = stages.response_bytes / frames;
  out["service.parse_line_us"] = stages.parse_line / frames;
  out["service.admission_us"] = stages.admission / frames;
  out["service.acquire_state_us"] = stages.acquire_state / frames;
  out["service.estimate_us"] = stages.estimate / frames;
  out["service.bookkeeping_us"] = stages.bookkeeping / frames;
  out["trace.stage_sum_frac"] = stages.Covered() / frames / Mean(walls);

  // ---- direct calls into each layer, on the replayed state ----
  service::EstimationService& service = *traced.service;
  const std::shared_ptr<const service::ServingState> state =
      service.AcquireState();
  const engine::EstimationContext& context = state->engine->context();
  const size_t sample = std::min(lines, kLayerLines);

  for (const std::string& name : kEstimatorUnion) {
    auto estimator = state->engine->Estimator(name);
    if (!estimator.ok()) return estimator.status();
    std::vector<double> micros;
    std::vector<double> qerrors;
    for (size_t i = 0; i < sample; ++i) {
      const service::EstimateRequest& request = inputs.pool[i].request;
      (void)(*estimator)->Estimate(request.query);  // warm, as served
      const auto t0 = Clock::now();
      auto estimate = (*estimator)->Estimate(request.query);
      micros.push_back(MicrosSince(t0));
      if (estimate.ok() && request.truth &&
          harness::UsableQError(*estimate, *request.truth)) {
        qerrors.push_back(harness::QError(*estimate, *request.truth));
      }
    }
    out["estimators." + name + ".p50_us"] = Median(micros);
    out["estimators." + name + ".qerror_p50"] = Median(qerrors);
  }

  {
    const stats::MarkovTable& markov = context.markov();
    const ceg::CegOOptions& ceg_options = context.options().ceg_options;
    std::vector<double> hits;
    for (size_t i = 0; i < sample; ++i) {
      const query::QueryGraph& query = inputs.pool[i].request.query;
      (void)context.ceg_cache().GetOrBuild(query, markov,
                                           OptimisticCeg::kCegO, nullptr,
                                           ceg_options);
      const auto t0 = Clock::now();
      (void)context.ceg_cache().GetOrBuild(query, markov,
                                           OptimisticCeg::kCegO, nullptr,
                                           ceg_options);
      hits.push_back(MicrosSince(t0));
    }
    out["engine.ceg_lookup_hit_us"] = Median(hits);

    // Misses into a fresh cache, on statistics the replay warmed.
    engine::CegCache fresh;
    std::set<std::string> built;
    std::vector<double> builds;
    for (size_t i = 0; i < sample && builds.size() < kBuildClasses; ++i) {
      const query::QueryGraph& query = inputs.pool[i].request.query;
      if (!built.insert(query.CanonicalCode()).second) continue;
      const auto t0 = Clock::now();
      (void)fresh.GetOrBuild(query, markov, OptimisticCeg::kCegO, nullptr,
                             ceg_options);
      builds.push_back(MicrosSince(t0));
    }
    out["ceg.build_us"] = Median(builds);
  }

  {
    // One new query at a time into a context that holds the ones before
    // it; whole-graph summaries are cs_build_ms's.
    engine::EstimationContext fresh(graph, options.context);
    engine::PrewarmOptions prewarm;
    prewarm.num_threads = 1;
    prewarm.summaries = false;
    std::vector<double> fills;
    for (size_t i = 0; i < std::min(sample, kFillQueries); ++i) {
      const service::EstimateRequest& request = inputs.pool[i].request;
      query::WorkloadQuery query{request.query, request.template_name,
                                 request.truth.value_or(0)};
      const auto t0 = Clock::now();
      fresh.Prewarm({query}, prewarm);
      fills.push_back(MicrosSince(t0));
    }
    out["stats.fill_us"] = Median(fills);

    std::vector<double> cs_builds;
    for (int r = 0; r < 3; ++r) {
      engine::EstimationContext empty(graph, options.context);
      const auto t0 = Clock::now();
      (void)empty.characteristic_sets();
      cs_builds.push_back(MicrosSince(t0) / 1e3);
    }
    out["stats.cs_build_ms"] = Median(cs_builds);
  }

  out["learn.lookup_us"] = Median(replica.lookup_us);
  out["learn.record_us"] = Median(replica.record_us);
  out["learn.active_classes"] =
      static_cast<double>(state->feedback->active_count());
  out["obs.class_code_us"] = Median(replica.class_code_us);
  out["obs.scorecard_record_us"] = Median(replica.scorecard_us);

  {
    std::vector<double> renders;
    std::vector<double> stats;
    for (int r = 0; r < kRepeats; ++r) {
      auto t0 = Clock::now();
      (void)obs::MetricsRegistry::Global().RenderPrometheus();
      renders.push_back(MicrosSince(t0));
      t0 = Clock::now();
      (void)service.Stats(/*with_scorecard=*/true);
      stats.push_back(MicrosSince(t0));
    }
    out["obs.prometheus_render_us"] = Median(renders);
    out["service.stats_v5_us"] = Median(stats);
  }

  // Snapshots: save the replayed state; map and attach the snapshot the
  // daemon starts from (cold-classes has none, so the saved one).
  const std::string saved = work_dir + "/replayed.snap";
  {
    std::vector<double> saves;
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = Clock::now();
      CEGRAPH_RETURN_IF_ERROR(
          context.SaveSnapshot(saved, engine::SnapshotFormat::kArena));
      saves.push_back(MicrosSince(t0) / 1e3);
    }
    out["engine.snapshot_save_ms"] = Median(saves);
  }
  const std::string snapshot =
      inputs.snapshot_path.empty() ? saved : inputs.snapshot_path;
  {
    std::vector<double> maps;
    std::vector<double> attaches;
    for (int r = 0; r < kRepeats; ++r) {
      engine::EstimationContext fresh(graph, options.context);
      engine::EstimationContext::SnapshotLoadReport report;
      CEGRAPH_RETURN_IF_ERROR(fresh.LoadSnapshot(snapshot, &report));
      maps.push_back(report.map_millis);
      attaches.push_back(report.parse_millis);
    }
    out["engine.snapshot_map_ms"] = Median(maps);
    out["engine.snapshot_attach_ms"] = Median(attaches);
  }

  // Maintenance: fork the replayed state with each feed (not published),
  // then fold the feeds through the service itself.
  {
    std::vector<std::vector<dynamic::EdgeDelta>> feeds;
    for (size_t k = 0; k < std::min<size_t>(inputs.feeds.size(), 3); ++k) {
      auto feed = ParseFeed(inputs.feeds[k]);
      if (!feed.ok()) return feed.status();
      feeds.push_back(std::move(*feed));
    }
    std::vector<double> forks;
    std::vector<double> evicted;
    for (const auto& feed : feeds) {
      dynamic::MaintenanceReport report;
      const auto t0 = Clock::now();
      auto fork = context.ForkWithDeltas(feed, &report);
      forks.push_back(MicrosSince(t0) / 1e3);
      if (!fork.ok()) return fork.status();
      evicted.push_back(static_cast<double>(report.total_evicted()));
    }
    out["dynamic.fork_ms"] = Median(forks);
    out["dynamic.evicted_entries"] = Median(evicted);

    std::vector<double> flushes;
    for (const auto& feed : feeds) {
      const auto t0 = Clock::now();
      CEGRAPH_RETURN_IF_ERROR(service.SubmitDeltas(feed));
      auto flushed = service.FlushDeltas();
      flushes.push_back(MicrosSince(t0) / 1e3);
      if (!flushed.ok()) return flushed.status();
    }
    out["service.flush_ms"] = Median(flushes);
  }
  {
    std::vector<double> swaps;
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = Clock::now();
      auto swapped = service.HotSwapSnapshot(snapshot);
      swaps.push_back(MicrosSince(t0) / 1e3);
      if (!swapped.ok()) return swapped.status();
    }
    out["service.hot_swap_ms"] = Median(swaps);
  }
  return util::Status::OK();
}

const std::vector<LayerMetric>& PerLayerMetrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"server.queue_wait_p50_us", "us"},
        {"server.queue_wait_p99_us", "us"},
        {"server.frame_decode_p50_us", "us"},
        {"server.encode_p50_us", "us"},
        {"server.write_p50_us", "us"},
        {"server.bytes_per_line", "bytes"},
        {"server.shed_total", "count"},
        {"server.backpressure_events", "count"},
        {"wire.decode_request_us", "us"},
        {"wire.encode_response_us", "us"},
        {"wire.decode_response_us", "us"},
        {"wire.response_bytes", "bytes"},
        {"service.parse_line_us", "us"},
        {"service.admission_us", "us"},
        {"service.acquire_state_us", "us"},
        {"service.estimate_us", "us"},
        {"service.bookkeeping_us", "us"},
        {"service.flush_ms", "ms"},
        {"service.hot_swap_ms", "ms"},
        {"service.stats_v5_us", "us"},
        {"engine.ceg_hit_ratio", "ratio"},
        {"engine.ceg_lookup_hit_us", "us"},
        {"engine.snapshot_map_ms", "ms"},
        {"engine.snapshot_attach_ms", "ms"},
        {"engine.resident_entries", "count"},
        {"engine.snapshot_save_ms", "ms"},
        {"ceg.build_us", "us"},
        {"stats.fill_us", "us"},
        {"stats.markov_hit_ratio", "ratio"},
        {"stats.markov_lookups", "count"},
        {"stats.degree_hit_ratio", "ratio"},
        {"stats.cs_build_ms", "ms"},
    };
    for (const std::string& name : kEstimatorUnion) {
      m.push_back({"estimators." + name + ".p50_us", "us"});
    }
    for (const std::string& name : kEstimatorUnion) {
      m.push_back({"estimators." + name + ".qerror_p50", "ratio"});
    }
    for (LayerMetric metric : std::vector<LayerMetric>{
             {"learn.lookup_us", "us"},
             {"learn.record_us", "us"},
             {"learn.active_classes", "count"},
             {"obs.class_code_us", "us"},
             {"obs.scorecard_record_us", "us"},
             {"obs.prometheus_render_us", "us"},
             {"dynamic.fork_ms", "ms"},
             {"dynamic.evicted_entries", "count"},
             {"loadgen.late_p99_us", "us"},
             {"workload.repeat_share", "ratio"},
             {"trace.unattributed_frac", "ratio"},
             {"trace.overhead_frac", "ratio"},
             {"trace.stage_sum_frac", "ratio"},
         }) {
      m.push_back(std::move(metric));
    }
    return m;
  }();
  return metrics;
}

}  // namespace cegraph::e2e
