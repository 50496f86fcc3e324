#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "engine/snapshot.h"
#include "harness/qerror.h"
#include "obs/stage_trace.h"

namespace cegraph::service {

namespace {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SnapshotLoadBreakdown BreakdownOf(
    const engine::EstimationContext::SnapshotLoadReport& report) {
  SnapshotLoadBreakdown out;
  out.loaded = true;
  out.mapped = report.mapped;
  out.mapped_bytes = report.mapped_bytes;
  out.map_millis = report.map_millis;
  out.parse_millis = report.parse_millis;
  out.snapshot_epoch = report.snapshot_epoch;
  return out;
}

/// Prometheus label values must escape backslash, quote and newline.
/// Scorecard class displays are patterns / template names, so this is
/// usually the identity — but a hostile workload line must not be able
/// to break the exposition format.
std::string PromLabelEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Query-class identity shared by the scorecard and the feedback store:
/// isomorphism-canonical shape (memoized on the query, so the CEG cache
/// lookups reuse it) plus the sorted label multiset the canonical code
/// abstracts away.
std::string QueryClassCode(const query::QueryGraph& query) {
  std::string key = query.CanonicalCode();
  std::vector<uint32_t> labels;
  labels.reserve(query.edges().size());
  for (const query::QueryEdge& e : query.edges()) {
    labels.push_back(e.label);
  }
  std::sort(labels.begin(), labels.end());
  key += '|';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(labels[i]);
  }
  return key;
}

std::string_view DisplayOf(const EstimateRequest& request) {
  return request.template_name.empty()
             ? std::string_view(request.pattern)
             : std::string_view(request.template_name);
}

}  // namespace

util::StatusOr<std::unique_ptr<EstimationService>> EstimationService::Create(
    std::shared_ptr<const graph::Graph> base_graph, ServiceOptions options) {
  if (base_graph == nullptr) {
    return util::InvalidArgumentError("service needs a base graph");
  }
  if (options.estimators.empty()) {
    return util::InvalidArgumentError(
        "service needs at least one estimator name");
  }
  std::unique_ptr<EstimationService> service(
      new EstimationService(std::move(base_graph), std::move(options)));
  service->scorecard_.SetDriftCallback(
      [raw = service.get()](const obs::ScorecardClassReport& report) {
        obs::JournalEvent event;
        event.type = "drift";
        event.text.emplace_back("class", report.display);
        event.num.emplace_back("baseline_median", report.baseline_median);
        event.num.emplace_back("window_p50", report.qerror.p50);
        event.num.emplace_back("hits", static_cast<double>(report.hits));
        raw->EmitJournal(std::move(event));
      });

  auto context = std::make_unique<engine::EstimationContext>(
      service->base_graph_, service->options_.context);
  {
    // Seed the feedback store with the service's learner knobs *before*
    // any snapshot load, so a persisted kFeedback section merges into a
    // store configured the way this service will keep learning.
    auto feedback = std::make_shared<learn::FeedbackStore>(
        service->options_.feedback_options);
    feedback->SetStamp(context->feedback_stamp());
    context->AdoptFeedbackStore(std::move(feedback));
  }
  if (!service->options_.initial_snapshot.empty()) {
    const std::string& path = service->options_.initial_snapshot;
    engine::EstimationContext::SnapshotLoadReport load_report;
    auto loaded = context->LoadSnapshot(path, &load_report);
    if (!loaded.ok() &&
        loaded.code() == util::StatusCode::kFailedPrecondition) {
      // The artifact may describe a later epoch of this base graph:
      // reconstruct by replaying its embedded delta log, then load fresh.
      auto log = engine::ReadSnapshotDeltaLog(path);
      if (log.ok() && !log->empty()) {
        auto applied = context->ApplyDeltas(*log);
        if (applied.ok()) loaded = context->LoadSnapshot(path, &load_report);
      }
    }
    if (!loaded.ok()) return loaded;
    service->last_load_ = BreakdownOf(load_report);  // pre-publication
  }
  if (!service->options_.prewarm_workload.empty()) {
    context->Prewarm(service->options_.prewarm_workload);
  }

  if (service->last_load_.loaded) {
    service->snapshot_loads_.fetch_add(1, std::memory_order_relaxed);
  }
  auto state = service->MakeState(std::move(context), 0);
  if (!state.ok()) return state.status();
  service->state_.store(std::move(*state), std::memory_order_release);
  service->RegisterMetrics();
  if (service->last_load_.loaded) {
    obs::JournalEvent event;
    event.type = "snapshot_load";
    event.num.emplace_back(
        "snapshot_epoch",
        static_cast<double>(service->last_load_.snapshot_epoch));
    event.num.emplace_back("mapped",
                           service->last_load_.mapped ? 1.0 : 0.0);
    event.num.emplace_back("map_millis", service->last_load_.map_millis);
    event.num.emplace_back("parse_millis",
                           service->last_load_.parse_millis);
    service->EmitJournal(std::move(event));
  }

  if (service->options_.compact_trigger_ops > 0) {
    service->maintainer_ = std::thread([raw = service.get()] {
      raw->MaintainerLoop();
    });
  }
  return service;
}

util::StatusOr<std::unique_ptr<EstimationService>> EstimationService::Create(
    graph::Graph&& base_graph, ServiceOptions options) {
  return Create(std::make_shared<const graph::Graph>(std::move(base_graph)),
                std::move(options));
}

EstimationService::EstimationService(
    std::shared_ptr<const graph::Graph> base_graph, ServiceOptions options)
    : base_graph_(std::move(base_graph)),
      options_(std::move(options)),
      admission_(options_.max_in_flight),
      accounting_(options_.estimators.size()),
      scorecard_(options_.scorecard) {}

EstimationService::~EstimationService() {
  if (metrics_collector_id_ != 0) {
    obs::MetricsRegistry::Global().RemoveCollector(metrics_collector_id_);
  }
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    stopping_ = true;
  }
  pending_cv_.notify_all();
  if (maintainer_.joinable()) maintainer_.join();
}

util::StatusOr<std::shared_ptr<ServingState>> EstimationService::MakeState(
    std::unique_ptr<engine::EstimationContext> context, uint64_t version) {
  auto state = std::make_shared<ServingState>();
  state->epoch = context->epoch();
  state->version = version;
  state->names = options_.estimators;
  // Pin the context's feedback store on the state so serve-time lookups
  // and recording never touch the context mutex.
  state->feedback = context->feedback_store_ptr();
  state->engine =
      std::make_unique<engine::EstimationEngine>(std::move(context));
  auto suite = state->engine->Estimators(state->names);
  if (!suite.ok()) return suite.status();
  state->suite = std::move(*suite);
  return state;
}

size_t EstimationService::TrimForRetention(
    engine::EstimationContext& context) const {
  if (options_.replay_keep_epochs < 0) return 0;
  const uint64_t keep = static_cast<uint64_t>(options_.replay_keep_epochs);
  const uint64_t epoch = context.epoch();
  if (epoch <= keep) return 0;
  return context.TrimReplayLog(epoch - keep);
}

void EstimationService::Publish(std::shared_ptr<const ServingState> state) {
  state_.store(std::move(state), std::memory_order_release);
  swaps_.fetch_add(1, std::memory_order_relaxed);
}

util::StatusOr<EstimateResponse> EstimationService::Estimate(
    const EstimateRequest& request) const {
  obs::StageTrace* trace = obs::StageTrace::Current();
  const double a0 = trace != nullptr ? NowMicros() : 0;
  AdmissionController::Ticket ticket =
      admission_.TryAdmit(RequestWeight(request.query));
  if (trace != nullptr) {
    trace->Add(obs::Stage::kAdmission, NowMicros() - a0);
  }
  if (!ticket) {
    return util::ResourceExhaustedError(
        "service saturated (" + std::to_string(admission_.capacity()) +
        " weight units in flight); retry");
  }

  // The whole request runs against this one state: same graph, same
  // statistics, same estimator instances, one epoch. The shared_ptr keeps
  // it alive even if the maintainer publishes successors mid-request.
  const double s0 = trace != nullptr ? NowMicros() : 0;
  const std::shared_ptr<const ServingState> state = AcquireState();
  if (trace != nullptr) {
    trace->Add(obs::Stage::kAcquireState, NowMicros() - s0);
  }
  return EstimateOnState(*state, request);
}

util::StatusOr<EstimateResponse> EstimationService::EstimateOnState(
    const ServingState& state, const EstimateRequest& request) const {
  const double t0 = NowMicros();
  const graph::Graph& g = state.engine->context().graph();
  for (const query::QueryEdge& e : request.query.edges()) {
    if (e.label >= g.num_labels()) {
      request_errors_.fetch_add(1, std::memory_order_relaxed);
      return util::InvalidArgumentError(
          "query label " + std::to_string(e.label) +
          " out of range (graph has " + std::to_string(g.num_labels()) +
          " labels)");
    }
  }

  EstimateResponse response;
  response.epoch = state.epoch;
  response.state_version = state.version;
  if (request.truth.has_value()) {
    response.has_truth = true;
    response.truth = *request.truth;
  }

  // Learned-feedback serve path, resolved once per request: with
  // feedback off the store is never consulted, so serving is
  // bit-identical to a pre-feedback build.
  learn::FeedbackStore* feedback = nullptr;
  if (options_.feedback != FeedbackMode::kOff && state.feedback != nullptr) {
    feedback = state.feedback.get();
  }
  // The query class keys both the feedback store and the scorecard; it
  // is built once, and only when one of them will use it.
  const bool metrics = obs::MetricsEnabled();
  const bool score = metrics && response.has_truth;
  std::string class_code;
  if (feedback != nullptr || score) class_code = QueryClassCode(request.query);

  response.results.reserve(state.suite.size());
  for (size_t i = 0; i < state.suite.size(); ++i) {
    EstimatorResult result;
    result.name = state.names[i];
    const double e0 = NowMicros();
    auto estimate = state.suite[i]->Estimate(request.query);
    result.micros = NowMicros() - e0;
    if (estimate.ok()) {
      result.ok = true;
      result.estimate = *estimate;
      result.raw_estimate = *estimate;
      if (feedback != nullptr) {
        // CorrectionFor answers 1.0 below the confidence gate, so a
        // class without support serves raw without a branch here.
        const double correction = feedback->CorrectionFor(
            learn::FeedbackStore::ClassKey(result.name, class_code));
        if (correction != 1.0) {
          if (request.no_correction) {
            corrections_suppressed_.fetch_add(1, std::memory_order_relaxed);
          } else {
            result.estimate = result.raw_estimate * correction;
            result.correction = correction;
            result.corrected = true;
            corrections_applied_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      if (response.has_truth) {
        // Over the *served* estimate — corrected when one applied.
        result.qerror = harness::QError(result.estimate, response.truth);
      }
    } else {
      result.error = estimate.status().ToString();
    }
    response.results.push_back(std::move(result));
  }
  response.total_micros = NowMicros() - t0;
  if (obs::StageTrace* trace = obs::StageTrace::Current()) {
    trace->Add(obs::Stage::kEstimate, response.total_micros);
  }

  served_.fetch_add(1, std::memory_order_relaxed);
  latency_micros_total_.fetch_add(
      static_cast<uint64_t>(response.total_micros),
      std::memory_order_relaxed);
  if (metrics) {
    request_latency_hist_.Record(response.total_micros);
    request_latency_window_.Record(response.total_micros);
  }
  for (size_t i = 0; i < response.results.size(); ++i) {
    EstimatorAccum& accum = accounting_[i];
    const EstimatorResult& result = response.results[i];
    accum.requests.fetch_add(1, std::memory_order_relaxed);
    accum.micros.fetch_add(result.micros, std::memory_order_relaxed);
    if (metrics) accum.latency_hist.Record(result.micros);
    if (!result.ok) {
      accum.failures.fetch_add(1, std::memory_order_relaxed);
    } else if (response.has_truth && harness::UsableQError(result.qerror)) {
      // Only usable samples reach the aggregate: harness::QError returns
      // +inf for a zero estimate against nonzero truth and NaN for
      // nonpositive truth — one such request must not poison the mean
      // (or the histogram) forever.
      accum.truth_requests.fetch_add(1, std::memory_order_relaxed);
      accum.qerror_sum.fetch_add(result.qerror, std::memory_order_relaxed);
      if (metrics) accum.qerror_hist.Record(result.qerror);
    }
  }
  if (score) RecordScorecard(request, response, class_code);
  if (feedback != nullptr && response.has_truth) {
    // Pre/post-correction windowed q-error: the live readout of whether
    // the loop helps. Both sides use the same usable samples, so the
    // comparison is apples to apples.
    if (metrics) {
      for (const EstimatorResult& result : response.results) {
        if (!result.ok ||
            !harness::UsableQError(result.raw_estimate, response.truth)) {
          continue;
        }
        qerror_raw_window_.Record(
            harness::QError(result.raw_estimate, response.truth));
        qerror_corrected_window_.Record(
            harness::QError(result.estimate, response.truth));
      }
    }
    // Learning always consumes RAW estimates (kFrozen applies but does
    // not learn). Off the hot path: per-class mutex only.
    if (options_.feedback == FeedbackMode::kOn) {
      RecordFeedback(*feedback, request, response, class_code);
    }
  }
  return response;
}

void EstimationService::RecordFeedback(learn::FeedbackStore& store,
                                       const EstimateRequest& request,
                                       const EstimateResponse& response,
                                       const std::string& class_code) const {
  const std::string_view display = DisplayOf(request);
  for (const EstimatorResult& result : response.results) {
    // Same usability bar as every other truth consumer (satellite
    // contract: one guard, harness::UsableQError, everywhere).
    if (!result.ok ||
        !harness::UsableQError(result.raw_estimate, response.truth)) {
      continue;
    }
    auto update = store.Record(
        learn::FeedbackStore::ClassKey(result.name, class_code), display,
        result.raw_estimate, response.truth);
    if (!update.has_value()) continue;
    obs::JournalEvent event;
    event.type = "correction_update";
    event.text.emplace_back("class", update->display);
    event.text.emplace_back("key", update->key);
    event.num.emplace_back("correction", update->correction);
    event.num.emplace_back("samples",
                           static_cast<double>(update->samples));
    event.num.emplace_back("activated", update->activated ? 1.0 : 0.0);
    EmitJournal(std::move(event));
  }
}

void EstimationService::RecordScorecard(const EstimateRequest& request,
                                        const EstimateResponse& response,
                                        const std::string& class_code) const {
  const std::string_view display = DisplayOf(request);
  const int64_t now_sec = obs::WindowedHistogram::NowSec();
  for (const EstimatorResult& result : response.results) {
    // Same usability bar as the mean/histogram aggregates above.
    if (!result.ok || !harness::UsableQError(result.qerror)) {
      continue;
    }
    obs::ScorecardSample sample;
    sample.class_key = class_code;
    sample.display = display;
    sample.line = request.pattern;
    sample.estimator = result.name;
    sample.qerror = result.qerror;
    sample.estimate = result.estimate;
    sample.truth = response.truth;
    scorecard_.RecordAt(sample, now_sec);
  }
}

void EstimationService::EmitJournal(obs::JournalEvent event) const {
  if (options_.journal == nullptr) return;
  if (event.dataset.empty()) event.dataset = options_.metrics_label;
  options_.journal->Emit(std::move(event));
}

util::StatusOr<EstimateResponse> EstimationService::EstimateLine(
    std::string_view line) const {
  auto request = ParseRequestLine(line);
  if (!request.ok()) {
    request_errors_.fetch_add(1, std::memory_order_relaxed);
    return request.status();
  }
  return Estimate(*request);
}

std::vector<BatchEstimateItem> EstimationService::RunBatchOnCurrentState(
    const std::vector<const EstimateRequest*>& parsed,
    const std::vector<util::Status>& errors) const {
  // One state for the whole batch: every item shares a single epoch, the
  // per-frame extension of the one-request consistency contract.
  const std::shared_ptr<const ServingState> state = AcquireState();
  std::vector<BatchEstimateItem> items(parsed.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    if (parsed[i] == nullptr) {
      items[i].status = errors[i];
      continue;
    }
    auto response = EstimateOnState(*state, *parsed[i]);
    if (response.ok()) {
      items[i].estimate = std::move(*response);
    } else {
      items[i].status = response.status();
    }
  }
  return items;
}

util::StatusOr<std::vector<BatchEstimateItem>>
EstimationService::EstimateBatch(
    const std::vector<std::string>& lines) const {
  if (lines.empty()) {
    return util::InvalidArgumentError("batch carries no estimate lines");
  }
  std::vector<util::StatusOr<EstimateRequest>> parsed;
  parsed.reserve(lines.size());
  int64_t weight = 0;
  for (const std::string& line : lines) {
    parsed.push_back(ParseRequestLine(line));
    if (parsed.back().ok()) {
      weight += RequestWeight(parsed.back()->query);
    } else {
      request_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The frame is admitted (or shed) as one unit, priced by everything it
  // carries — a rejected batch costs the service nothing.
  obs::StageTrace* trace = obs::StageTrace::Current();
  const double a0 = trace != nullptr ? NowMicros() : 0;
  AdmissionController::Ticket ticket = admission_.TryAdmit(weight);
  if (trace != nullptr) {
    trace->Add(obs::Stage::kAdmission, NowMicros() - a0);
  }
  if (!ticket) {
    return util::ResourceExhaustedError(
        "service saturated (" + std::to_string(admission_.capacity()) +
        " weight units in flight); retry the batch");
  }
  if (obs::MetricsEnabled()) {
    batch_lines_hist_.Record(static_cast<double>(lines.size()));
  }
  std::vector<const EstimateRequest*> pointers(parsed.size(), nullptr);
  std::vector<util::Status> errors(parsed.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    if (parsed[i].ok()) {
      pointers[i] = &*parsed[i];
    } else {
      errors[i] = parsed[i].status();
    }
  }
  return RunBatchOnCurrentState(pointers, errors);
}

util::StatusOr<std::vector<BatchEstimateItem>>
EstimationService::EstimateBatch(
    const std::vector<const EstimateRequest*>& requests) const {
  if (requests.empty()) {
    return util::InvalidArgumentError("batch carries no estimate requests");
  }
  int64_t weight = 0;
  for (const EstimateRequest* request : requests) {
    if (request != nullptr) weight += RequestWeight(request->query);
  }
  AdmissionController::Ticket ticket = admission_.TryAdmit(weight);
  if (!ticket) {
    return util::ResourceExhaustedError(
        "service saturated (" + std::to_string(admission_.capacity()) +
        " weight units in flight); retry the batch");
  }
  if (obs::MetricsEnabled()) {
    batch_lines_hist_.Record(static_cast<double>(requests.size()));
  }
  std::vector<util::Status> errors(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i] == nullptr) {
      errors[i] = util::InvalidArgumentError("null request in batch");
    }
  }
  return RunBatchOnCurrentState(requests, errors);
}

util::Status EstimationService::SubmitDeltas(
    std::vector<dynamic::EdgeDelta> batch) {
  if (batch.empty()) return util::Status::OK();
  // Same range checks DeltaGraph::Apply would make; the vertex and label
  // spaces are fixed at base-graph construction, so validity is
  // epoch-independent and a queued batch can no longer fail the fold.
  for (const dynamic::EdgeDelta& d : batch) {
    if (d.edge.src >= base_graph_->num_vertices() ||
        d.edge.dst >= base_graph_->num_vertices()) {
      return util::InvalidArgumentError("delta edge endpoint out of range");
    }
    if (d.edge.label >= base_graph_->num_labels()) {
      return util::InvalidArgumentError("delta edge label out of range");
    }
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.insert(pending_.end(), batch.begin(), batch.end());
    wake = options_.compact_trigger_ops > 0 &&
           pending_.size() >=
               static_cast<size_t>(options_.compact_trigger_ops);
  }
  if (wake) pending_cv_.notify_one();
  return util::Status::OK();
}

util::StatusOr<SwapReport> EstimationService::FlushDeltas() {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  std::vector<dynamic::EdgeDelta> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    batch.swap(pending_);
  }
  if (batch.empty()) {
    const auto state = AcquireState();
    SwapReport report;
    report.epoch = state->epoch;
    report.version = state->version;
    return report;
  }
  return ApplyBatchLocked(std::move(batch));
}

util::StatusOr<SwapReport> EstimationService::ApplyBatchLocked(
    std::vector<dynamic::EdgeDelta> batch) {
  const std::shared_ptr<const ServingState> current = AcquireState();

  SwapReport report;
  report.applied_ops = batch.size();
  const double f0 = NowMicros();
  auto fork = current->engine->context().ForkWithDeltas(
      batch, &report.maintenance);
  const double fold_millis = (NowMicros() - f0) / 1000.0;
  if (obs::MetricsEnabled()) fold_millis_hist_.Record(fold_millis);
  if (!fork.ok()) return fork.status();
  report.trimmed_log_ops = TrimForRetention(**fork);

  auto next = MakeState(std::move(*fork), current->version + 1);
  if (!next.ok()) return next.status();
  report.epoch = (*next)->epoch;
  report.version = (*next)->version;
  Publish(std::move(*next));
  // A fold keeps the estimates' regime: the scorecard baselines stand.
  obs::JournalEvent event;
  event.type = "fold";
  event.num.emplace_back("epoch", static_cast<double>(report.epoch));
  event.num.emplace_back("version", static_cast<double>(report.version));
  event.num.emplace_back("applied_ops",
                         static_cast<double>(report.applied_ops));
  event.num.emplace_back("fold_millis", fold_millis);
  EmitJournal(std::move(event));
  return report;
}

util::StatusOr<SwapReport> EstimationService::HotSwapSnapshot(
    const std::string& path) {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);

  // Built entirely off to the side: a fresh context over the shared base
  // graph, rebased onto the artifact. The current state keeps serving
  // until the single publish below.
  auto context = std::make_unique<engine::EstimationContext>(
      base_graph_, options_.context);
  {
    // A snapshot swap rebases statistics, not learned truth: the live
    // feedback store carries over (same base graph, same stamp), and any
    // kFeedback section in the artifact merges in underneath it —
    // existing classes win, so live learning is never rolled back.
    const std::shared_ptr<const ServingState> serving = AcquireState();
    if (serving->feedback != nullptr &&
        serving->feedback->stamp() == context->feedback_stamp()) {
      context->AdoptFeedbackStore(serving->feedback);
    } else {
      auto feedback = std::make_shared<learn::FeedbackStore>(
          options_.feedback_options);
      feedback->SetStamp(context->feedback_stamp());
      context->AdoptFeedbackStore(std::move(feedback));
    }
  }
  SwapReport report;
  engine::EstimationContext::SnapshotLoadReport load_report;
  auto loaded = context->LoadSnapshot(path, &load_report);
  if (!loaded.ok() &&
      loaded.code() == util::StatusCode::kFailedPrecondition) {
    auto log = engine::ReadSnapshotDeltaLog(path);
    if (log.ok() && !log->empty()) {
      auto applied = context->ApplyDeltas(*log);
      if (applied.ok()) {
        loaded = context->LoadSnapshot(path, &load_report);
        if (loaded.ok()) report.snapshot_replayed_deltas = log->size();
      }
    }
  }
  if (!loaded.ok()) return loaded;
  report.snapshot_stale = load_report.stale;
  report.snapshot_replayed_deltas += load_report.replayed_deltas;
  report.snapshot_load = BreakdownOf(load_report);
  snapshot_loads_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(load_mutex_);
    last_load_ = report.snapshot_load;
  }

  // Satellite contract: every successful hot-swap trims the new state's
  // replay log so a churning service's log and epoch history stay bounded.
  report.trimmed_log_ops = TrimForRetention(*context);

  const std::shared_ptr<const ServingState> current = AcquireState();
  auto next = MakeState(std::move(context), current->version + 1);
  if (!next.ok()) return next.status();
  report.epoch = (*next)->epoch;
  report.version = (*next)->version;
  Publish(std::move(*next));
  // The swap rebased the service onto a new artifact: whatever the
  // estimates do now is the new normal, so drift is measured against a
  // baseline stamped from here on.
  scorecard_.StampBaseline();
  obs::JournalEvent event;
  event.type = "swap";
  event.num.emplace_back("epoch", static_cast<double>(report.epoch));
  event.num.emplace_back("version", static_cast<double>(report.version));
  event.num.emplace_back(
      "replayed_deltas",
      static_cast<double>(report.snapshot_replayed_deltas));
  event.num.emplace_back("stale", report.snapshot_stale ? 1.0 : 0.0);
  event.num.emplace_back("map_millis", report.snapshot_load.map_millis);
  event.num.emplace_back("parse_millis",
                         report.snapshot_load.parse_millis);
  EmitJournal(std::move(event));
  return report;
}

void EstimationService::MaintainerLoop() {
  const size_t trigger =
      static_cast<size_t>(options_.compact_trigger_ops);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pending_mutex_);
      pending_cv_.wait(lock, [&] {
        return stopping_ || pending_.size() >= trigger;
      });
      if (stopping_) return;
    }
    // Volume threshold reached: fold everything pending into a new state.
    // Batches were validated at SubmitDeltas, so the fold only fails on
    // resource exhaustion — in which case the batch is dropped and the
    // service keeps serving the last good state.
    (void)FlushDeltas();
  }
}

ServiceStats EstimationService::Stats(bool with_scorecard) const {
  ServiceStats stats;
  stats.served = served_.load(std::memory_order_relaxed);
  stats.rejected = admission_.rejected();
  stats.request_errors = request_errors_.load(std::memory_order_relaxed);
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  const auto state = AcquireState();
  stats.epoch = state->epoch;
  stats.version = state->version;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    stats.pending_delta_ops = pending_.size();
  }
  stats.replay_log_ops = state->engine->context().delta_log().size();
  stats.min_replayable_epoch =
      state->engine->context().min_replayable_epoch();
  stats.in_flight = admission_.in_flight();
  stats.peak_in_flight = admission_.peak_in_flight();
  if (stats.served > 0) {
    stats.mean_latency_micros =
        static_cast<double>(
            latency_micros_total_.load(std::memory_order_relaxed)) /
        static_cast<double>(stats.served);
  }
  stats.estimators.reserve(accounting_.size());
  for (size_t i = 0; i < accounting_.size(); ++i) {
    ServiceStats::EstimatorAccounting out;
    out.name = options_.estimators[i];
    out.requests = accounting_[i].requests.load(std::memory_order_relaxed);
    out.failures = accounting_[i].failures.load(std::memory_order_relaxed);
    if (out.requests > 0) {
      out.mean_micros =
          accounting_[i].micros.load(std::memory_order_relaxed) /
          static_cast<double>(out.requests);
    }
    const uint64_t truth_requests =
        accounting_[i].truth_requests.load(std::memory_order_relaxed);
    if (truth_requests > 0) {
      out.mean_qerror =
          accounting_[i].qerror_sum.load(std::memory_order_relaxed) /
          static_cast<double>(truth_requests);
    }
    out.latency = accounting_[i].latency_hist.Snapshot().Summary();
    out.qerror = accounting_[i].qerror_hist.Snapshot().Summary();
    stats.estimators.push_back(std::move(out));
  }
  stats.latency = request_latency_hist_.Snapshot().Summary();
  stats.batch_lines = batch_lines_hist_.Snapshot().Summary();
  stats.fold_millis = fold_millis_hist_.Snapshot().Summary();
  stats.admitted_weight = admission_.admitted_weight();
  stats.rejected_weight = admission_.rejected_weight();
  stats.snapshot_loads = snapshot_loads_.load(std::memory_order_relaxed);
  for (const auto& cache : state->engine->context().CollectCacheStats()) {
    ServiceStats::CacheRow row;
    row.name = cache.name;
    row.entries = cache.entries;
    row.hits = cache.counters.hits;
    row.misses = cache.counters.misses;
    row.evictions = cache.counters.evictions;
    stats.caches.push_back(std::move(row));
  }
  {
    std::lock_guard<std::mutex> lock(load_mutex_);
    stats.snapshot_load = last_load_;
  }
  stats.any_drift = scorecard_.AnyDrift();
  stats.scorecard_window_seconds =
      options_.scorecard.window.span_seconds();
  stats.latency_1m = request_latency_window_.SnapshotWindow(60).Summary();
  stats.rate_1m = request_latency_window_.RatePerSec(60);
  if (with_scorecard) {
    stats.scorecard = scorecard_.Report(stats.scorecard_window_seconds);
    stats.scorecard_wire = true;
  }
  stats.feedback_mode = options_.feedback;
  stats.corrections_applied =
      corrections_applied_.load(std::memory_order_relaxed);
  stats.corrections_suppressed =
      corrections_suppressed_.load(std::memory_order_relaxed);
  if (state->feedback != nullptr) {
    stats.feedback_classes = state->feedback->class_count();
    stats.feedback_active = state->feedback->active_count();
    stats.feedback_evictions = state->feedback->evictions();
  }
  stats.qerror_raw_1m = qerror_raw_window_.SnapshotWindow(60).Summary();
  stats.qerror_corrected_1m =
      qerror_corrected_window_.SnapshotWindow(60).Summary();
  if (with_scorecard && state->feedback != nullptr) {
    stats.corrections = state->feedback->Report();
    stats.corrections_wire = true;
  }
  return stats;
}

void EstimationService::RegisterMetrics() {
  const std::string dataset_label =
      options_.metrics_label.empty()
          ? std::string()
          : "dataset=\"" + options_.metrics_label + "\"";
  metrics_collector_id_ = obs::MetricsRegistry::Global().AddCollector(
      [this, dataset_label](obs::PromWriter& w) {
        const std::string& l = dataset_label;
        const std::string sep = l.empty() ? "" : ",";
        w.WriteCounter("cegraph_requests_served_total", l, served_.load());
        w.WriteCounter("cegraph_request_errors_total", l,
                       request_errors_.load());
        w.WriteCounter("cegraph_admission_rejected_total", l,
                       admission_.rejected());
        w.WriteCounter("cegraph_admitted_weight_units_total", l,
                       admission_.admitted_weight());
        w.WriteCounter("cegraph_rejected_weight_units_total", l,
                       admission_.rejected_weight());
        w.WriteGauge("cegraph_in_flight_weight", l,
                     static_cast<double>(admission_.in_flight()));
        w.WriteCounter("cegraph_swaps_total", l, swaps_.load());
        w.WriteHistogram("cegraph_request_latency_micros", l,
                         request_latency_hist_.Snapshot());
        w.WriteHistogram("cegraph_batch_lines", l,
                         batch_lines_hist_.Snapshot());
        w.WriteHistogram("cegraph_fold_millis", l,
                         fold_millis_hist_.Snapshot());
        const auto state = AcquireState();
        w.WriteGauge("cegraph_serving_epoch", l,
                     static_cast<double>(state->epoch));
        w.WriteGauge("cegraph_serving_version", l,
                     static_cast<double>(state->version));
        {
          std::lock_guard<std::mutex> lock(pending_mutex_);
          w.WriteGauge("cegraph_pending_delta_ops", l,
                       static_cast<double>(pending_.size()));
        }
        w.WriteCounter("cegraph_snapshot_loads_total", l,
                       snapshot_loads_.load());
        {
          std::lock_guard<std::mutex> lock(load_mutex_);
          w.WriteGauge("cegraph_snapshot_load_map_millis", l,
                       last_load_.map_millis);
          w.WriteGauge("cegraph_snapshot_load_parse_millis", l,
                       last_load_.parse_millis);
          w.WriteGauge("cegraph_snapshot_load_mapped_bytes", l,
                       static_cast<double>(last_load_.mapped_bytes));
        }
        for (size_t i = 0; i < accounting_.size(); ++i) {
          const std::string el =
              l + sep + "estimator=\"" + options_.estimators[i] + "\"";
          w.WriteHistogram("cegraph_estimator_latency_micros", el,
                           accounting_[i].latency_hist.Snapshot());
          w.WriteHistogram("cegraph_estimator_qerror", el,
                           accounting_[i].qerror_hist.Snapshot());
          w.WriteCounter("cegraph_estimator_failures_total", el,
                         accounting_[i].failures.load());
        }
        for (const auto& cache : state->engine->context().CollectCacheStats()) {
          const std::string cl = l + sep + "cache=\"" + cache.name + "\"";
          w.WriteGauge("cegraph_cache_entries", cl,
                       static_cast<double>(cache.entries));
          w.WriteCounter("cegraph_cache_hits_total", cl, cache.counters.hits);
          w.WriteCounter("cegraph_cache_misses_total", cl,
                         cache.counters.misses);
          w.WriteCounter("cegraph_cache_evictions_total", cl,
                         cache.counters.evictions);
        }
        // Windowed views: what the service did *lately*, next to the
        // lifetime histograms above.
        struct WindowView {
          int64_t seconds;
          const char* name;
        };
        static constexpr WindowView kWindows[] = {
            {60, "1m"}, {300, "5m"}, {900, "15m"}};
        for (const WindowView& view : kWindows) {
          const std::string wl =
              l + sep + "window=\"" + view.name + "\"";
          const obs::QuantileSummary s =
              request_latency_window_.SnapshotWindow(view.seconds)
                  .Summary();
          w.WriteGauge("cegraph_request_rate_per_sec", wl,
                       request_latency_window_.RatePerSec(view.seconds));
          w.WriteGauge("cegraph_request_latency_recent_p50_micros", wl,
                       s.p50);
          w.WriteGauge("cegraph_request_latency_recent_p99_micros", wl,
                       s.p99);
        }
        // Per-query-class scorecards. The drifted-classes gauge is the
        // CI tripwire: nonzero means some class's windowed median left
        // its baseline regime.
        w.WriteGauge("cegraph_scorecard_classes", l,
                     static_cast<double>(scorecard_.class_count()));
        w.WriteGauge("cegraph_scorecard_drifted_classes", l,
                     static_cast<double>(scorecard_.drifted_classes()));
        w.WriteCounter("cegraph_scorecard_evictions_total", l,
                       scorecard_.evictions());
        for (const obs::ScorecardClassReport& row : scorecard_.Report(
                 options_.scorecard.window.span_seconds())) {
          const std::string rl = l + sep + "class=\"" +
                                 PromLabelEscape(row.display) + "\"";
          w.WriteCounter("cegraph_scorecard_hits_total", rl, row.hits);
          w.WriteCounter("cegraph_scorecard_under_total", rl, row.under);
          w.WriteCounter("cegraph_scorecard_over_total", rl, row.over);
          w.WriteGauge("cegraph_scorecard_qerror_p50", rl,
                       row.qerror.p50);
          w.WriteGauge("cegraph_scorecard_qerror_p99", rl,
                       row.qerror.p99);
          w.WriteGauge("cegraph_scorecard_drifted", rl,
                       row.drifted ? 1.0 : 0.0);
        }
        // Learned-feedback loop: class census, apply/suppress counters
        // and the trailing-minute pre/post-correction q-error medians
        // (the one-glance "is the loop helping" pair).
        const auto feedback = state->feedback;
        if (feedback != nullptr) {
          w.WriteGauge("cegraph_feedback_classes", l,
                       static_cast<double>(feedback->class_count()));
          w.WriteGauge("cegraph_feedback_active_classes", l,
                       static_cast<double>(feedback->active_count()));
          w.WriteCounter("cegraph_feedback_evictions_total", l,
                         feedback->evictions());
        }
        w.WriteCounter("cegraph_corrections_applied_total", l,
                       corrections_applied_.load());
        w.WriteCounter("cegraph_corrections_suppressed_total", l,
                       corrections_suppressed_.load());
        const obs::QuantileSummary raw_1m =
            qerror_raw_window_.SnapshotWindow(60).Summary();
        const obs::QuantileSummary corrected_1m =
            qerror_corrected_window_.SnapshotWindow(60).Summary();
        w.WriteGauge("cegraph_qerror_precorrection_p50", l, raw_1m.p50);
        w.WriteGauge("cegraph_qerror_precorrection_p99", l, raw_1m.p99);
        w.WriteGauge("cegraph_qerror_postcorrection_p50", l,
                     corrected_1m.p50);
        w.WriteGauge("cegraph_qerror_postcorrection_p99", l,
                     corrected_1m.p99);
      });
}

}  // namespace cegraph::service
