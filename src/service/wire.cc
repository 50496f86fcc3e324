#include "service/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/serde.h"

namespace cegraph::service::wire {

namespace {

using util::serde::Reader;
using util::serde::Writer;

constexpr char kConnectionClosed[] = "connection closed";

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kEstimate) &&
         type <= static_cast<uint8_t>(MessageType::kBatchEstimate);
}

void EncodeEstimate(Writer& w, const EstimateResponse& estimate) {
  w.WriteU64(estimate.epoch);
  w.WriteU64(estimate.state_version);
  w.WriteDouble(estimate.total_micros);
  w.WriteU8(estimate.has_truth ? 1 : 0);
  w.WriteDouble(estimate.truth);
  w.WriteU32(static_cast<uint32_t>(estimate.results.size()));
  for (const EstimatorResult& result : estimate.results) {
    w.WriteString(result.name);
    w.WriteU8(result.ok ? 1 : 0);
    w.WriteDouble(result.estimate);
    w.WriteString(result.error);
    w.WriteDouble(result.micros);
    w.WriteDouble(result.qerror);
  }
}

util::StatusOr<EstimateResponse> DecodeEstimate(Reader& r) {
  EstimateResponse estimate;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return epoch.status();
  estimate.epoch = *epoch;
  auto version = r.ReadU64();
  if (!version.ok()) return version.status();
  estimate.state_version = *version;
  auto micros = r.ReadDouble();
  if (!micros.ok()) return micros.status();
  estimate.total_micros = *micros;
  auto has_truth = r.ReadU8();
  if (!has_truth.ok()) return has_truth.status();
  estimate.has_truth = *has_truth != 0;
  auto truth = r.ReadDouble();
  if (!truth.ok()) return truth.status();
  estimate.truth = *truth;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  // Every result occupies well over one byte, so a count beyond the
  // remaining payload is corruption — reject it before reserve() turns
  // it into a multi-gigabyte allocation.
  if (*count > r.remaining()) {
    return util::InvalidArgumentError(
        "estimate result count exceeds frame payload");
  }
  estimate.results.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    EstimatorResult result;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    result.name = std::move(*name);
    auto ok = r.ReadU8();
    if (!ok.ok()) return ok.status();
    result.ok = *ok != 0;
    auto estimate_value = r.ReadDouble();
    if (!estimate_value.ok()) return estimate_value.status();
    result.estimate = *estimate_value;
    auto error = r.ReadString();
    if (!error.ok()) return error.status();
    result.error = std::move(*error);
    auto result_micros = r.ReadDouble();
    if (!result_micros.ok()) return result_micros.status();
    result.micros = *result_micros;
    auto qerror = r.ReadDouble();
    if (!qerror.ok()) return qerror.status();
    result.qerror = *qerror;
    estimate.results.push_back(std::move(result));
  }
  return estimate;
}

void EncodeLoadBreakdown(Writer& w, const SnapshotLoadBreakdown& load) {
  w.WriteU8(load.loaded ? 1 : 0);
  w.WriteU8(load.mapped ? 1 : 0);
  w.WriteU64(load.mapped_bytes);
  w.WriteDouble(load.map_millis);
  w.WriteDouble(load.parse_millis);
  w.WriteU64(load.snapshot_epoch);
}

util::StatusOr<SnapshotLoadBreakdown> DecodeLoadBreakdown(Reader& r) {
  SnapshotLoadBreakdown load;
  auto loaded = r.ReadU8();
  if (!loaded.ok()) return loaded.status();
  load.loaded = *loaded != 0;
  auto mapped = r.ReadU8();
  if (!mapped.ok()) return mapped.status();
  load.mapped = *mapped != 0;
  auto bytes = r.ReadU64();
  if (!bytes.ok()) return bytes.status();
  load.mapped_bytes = *bytes;
  auto map_millis = r.ReadDouble();
  if (!map_millis.ok()) return map_millis.status();
  load.map_millis = *map_millis;
  auto parse_millis = r.ReadDouble();
  if (!parse_millis.ok()) return parse_millis.status();
  load.parse_millis = *parse_millis;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return epoch.status();
  load.snapshot_epoch = *epoch;
  return load;
}

void EncodeSwap(Writer& w, const SwapReport& swap) {
  w.WriteU64(swap.epoch);
  w.WriteU64(swap.version);
  w.WriteU64(swap.applied_ops);
  w.WriteU64(swap.trimmed_log_ops);
  w.WriteU64(swap.maintenance.inserted_edges);
  w.WriteU64(swap.maintenance.deleted_edges);
  w.WriteU64(swap.maintenance.changed_labels);
  w.WriteU64(swap.maintenance.total_evicted());
  w.WriteU8(swap.snapshot_stale ? 1 : 0);
  w.WriteU64(swap.snapshot_replayed_deltas);
  EncodeLoadBreakdown(w, swap.snapshot_load);
}

util::StatusOr<SwapReport> DecodeSwap(Reader& r) {
  SwapReport swap;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return epoch.status();
  swap.epoch = *epoch;
  auto version = r.ReadU64();
  if (!version.ok()) return version.status();
  swap.version = *version;
  auto applied = r.ReadU64();
  if (!applied.ok()) return applied.status();
  swap.applied_ops = *applied;
  auto trimmed = r.ReadU64();
  if (!trimmed.ok()) return trimmed.status();
  swap.trimmed_log_ops = *trimmed;
  auto inserted = r.ReadU64();
  if (!inserted.ok()) return inserted.status();
  swap.maintenance.inserted_edges = *inserted;
  auto deleted = r.ReadU64();
  if (!deleted.ok()) return deleted.status();
  swap.maintenance.deleted_edges = *deleted;
  auto labels = r.ReadU64();
  if (!labels.ok()) return labels.status();
  swap.maintenance.changed_labels = *labels;
  // Total evictions travel in one summary slot: the CEG bucket of the
  // report (the per-structure split stays server-side).
  auto evicted = r.ReadU64();
  if (!evicted.ok()) return evicted.status();
  swap.maintenance.ceg_evicted = *evicted;
  auto stale = r.ReadU8();
  if (!stale.ok()) return stale.status();
  swap.snapshot_stale = *stale != 0;
  auto replayed = r.ReadU64();
  if (!replayed.ok()) return replayed.status();
  swap.snapshot_replayed_deltas = *replayed;
  auto load = DecodeLoadBreakdown(r);
  if (!load.ok()) return load.status();
  swap.snapshot_load = *load;
  return swap;
}

void EncodeStats(Writer& w, const ServiceStats& stats) {
  w.WriteU64(stats.served);
  w.WriteU64(stats.rejected);
  w.WriteU64(stats.request_errors);
  w.WriteU64(stats.swaps);
  w.WriteU64(stats.epoch);
  w.WriteU64(stats.version);
  w.WriteU64(stats.pending_delta_ops);
  w.WriteU64(stats.replay_log_ops);
  w.WriteU64(stats.min_replayable_epoch);
  w.WriteU64(static_cast<uint64_t>(stats.in_flight));
  w.WriteU64(static_cast<uint64_t>(stats.peak_in_flight));
  w.WriteDouble(stats.mean_latency_micros);
  w.WriteU32(static_cast<uint32_t>(stats.estimators.size()));
  for (const ServiceStats::EstimatorAccounting& e : stats.estimators) {
    w.WriteString(e.name);
    w.WriteU64(e.requests);
    w.WriteU64(e.failures);
    w.WriteDouble(e.mean_micros);
    w.WriteDouble(e.mean_qerror);
  }
  // Snapshot-load observability (arena snapshots): how the state behind
  // this scrape was loaded and what each phase cost.
  EncodeLoadBreakdown(w, stats.snapshot_load);
}

util::StatusOr<ServiceStats> DecodeStats(Reader& r) {
  ServiceStats stats;
  auto served = r.ReadU64();
  if (!served.ok()) return served.status();
  stats.served = *served;
  auto rejected = r.ReadU64();
  if (!rejected.ok()) return rejected.status();
  stats.rejected = *rejected;
  auto errors = r.ReadU64();
  if (!errors.ok()) return errors.status();
  stats.request_errors = *errors;
  auto swaps = r.ReadU64();
  if (!swaps.ok()) return swaps.status();
  stats.swaps = *swaps;
  auto epoch = r.ReadU64();
  if (!epoch.ok()) return epoch.status();
  stats.epoch = *epoch;
  auto version = r.ReadU64();
  if (!version.ok()) return version.status();
  stats.version = *version;
  auto pending = r.ReadU64();
  if (!pending.ok()) return pending.status();
  stats.pending_delta_ops = *pending;
  auto log_ops = r.ReadU64();
  if (!log_ops.ok()) return log_ops.status();
  stats.replay_log_ops = *log_ops;
  auto min_epoch = r.ReadU64();
  if (!min_epoch.ok()) return min_epoch.status();
  stats.min_replayable_epoch = *min_epoch;
  auto in_flight = r.ReadU64();
  if (!in_flight.ok()) return in_flight.status();
  stats.in_flight = static_cast<int64_t>(*in_flight);
  auto peak = r.ReadU64();
  if (!peak.ok()) return peak.status();
  stats.peak_in_flight = static_cast<int64_t>(*peak);
  auto latency = r.ReadDouble();
  if (!latency.ok()) return latency.status();
  stats.mean_latency_micros = *latency;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (*count > r.remaining()) {
    return util::InvalidArgumentError(
        "estimator accounting count exceeds frame payload");
  }
  stats.estimators.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    ServiceStats::EstimatorAccounting e;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    e.name = std::move(*name);
    auto requests = r.ReadU64();
    if (!requests.ok()) return requests.status();
    e.requests = *requests;
    auto failures = r.ReadU64();
    if (!failures.ok()) return failures.status();
    e.failures = *failures;
    auto micros = r.ReadDouble();
    if (!micros.ok()) return micros.status();
    e.mean_micros = *micros;
    auto qerror = r.ReadDouble();
    if (!qerror.ok()) return qerror.status();
    e.mean_qerror = *qerror;
    stats.estimators.push_back(std::move(e));
  }
  auto load = DecodeLoadBreakdown(r);
  if (!load.ok()) return load.status();
  stats.snapshot_load = *load;
  return stats;
}

// ---- v4 stats extension ----------------------------------------------------
//
// The extension travels as one trailing *string* after the optional v2
// dataset echo, so every pre-v4 field keeps its byte layout. Its content
// is the magic FF 43 47 34, u8 ext version, then the observability block
// (quantile summaries are u64 count + five f64s). Bytes beyond the v1
// block inside the string are ignored — a future ext version can append
// without breaking this decoder.

constexpr char kStatsExtMagic[4] = {'\xff', 'C', 'G', '4'};
/// v5 per-query-class scorecard extension (kStats responses, opt-in).
constexpr char kScorecardExtMagic[4] = {'\xff', 'C', 'G', '5'};
/// Learned-feedback corrections extension (kStats responses, rides the
/// same v5 opt-in as the scorecard).
constexpr char kCorrectionsExtMagic[4] = {'\xff', 'C', 'G', '6'};
/// v5 end-to-end request id (any request; echoed on the response).
constexpr char kRequestIdExtMagic[4] = {'\xff', 'C', 'G', 'R'};

bool HasMagic(std::string_view s, const char (&magic)[4]) {
  return s.size() >= sizeof(magic) &&
         std::memcmp(s.data(), magic, sizeof(magic)) == 0;
}

/// True for any 0xFF-led trailing string: an extension field, never a
/// dataset name.
bool IsExtensionField(std::string_view s) {
  return !s.empty() && s[0] == '\xff';
}

void EncodeSummary(Writer& w, const obs::QuantileSummary& s) {
  w.WriteU64(s.count);
  w.WriteDouble(s.mean);
  w.WriteDouble(s.p50);
  w.WriteDouble(s.p90);
  w.WriteDouble(s.p99);
  w.WriteDouble(s.max);
}

util::StatusOr<obs::QuantileSummary> DecodeSummary(Reader& r) {
  obs::QuantileSummary s;
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();
  s.count = *count;
  for (double* field : {&s.mean, &s.p50, &s.p90, &s.p99, &s.max}) {
    auto value = r.ReadDouble();
    if (!value.ok()) return value.status();
    *field = *value;
  }
  return s;
}

std::string EncodeStatsExt(const ServiceStats& stats) {
  Writer w;
  w.WriteRaw(std::string_view(kStatsExtMagic, sizeof(kStatsExtMagic)));
  w.WriteU8(1);  // ext version
  EncodeSummary(w, stats.latency);
  EncodeSummary(w, stats.batch_lines);
  EncodeSummary(w, stats.fold_millis);
  w.WriteU64(stats.admitted_weight);
  w.WriteU64(stats.rejected_weight);
  w.WriteU64(stats.snapshot_loads);
  w.WriteU8(stats.server.present ? 1 : 0);
  w.WriteU64(stats.server.connections_accepted);
  w.WriteU64(stats.server.connections_active);
  w.WriteU64(stats.server.shed_connection_cap);
  w.WriteU64(stats.server.shed_pipeline_cap);
  w.WriteU64(0);  // reserved, always 0: keeps the v4 layout fixed
  w.WriteU64(stats.server.backpressure_events);
  w.WriteU64(stats.server.bytes_in);
  w.WriteU64(stats.server.bytes_out);
  w.WriteU64(stats.server.frames_estimate);
  w.WriteU64(stats.server.frames_batch);
  w.WriteU64(stats.server.frames_other);
  w.WriteU32(static_cast<uint32_t>(stats.caches.size()));
  for (const ServiceStats::CacheRow& cache : stats.caches) {
    w.WriteString(cache.name);
    w.WriteU64(cache.entries);
    w.WriteU64(cache.hits);
    w.WriteU64(cache.misses);
    w.WriteU64(cache.evictions);
  }
  // Per-estimator summaries ride index-aligned with the v3 estimator
  // list — no names repeated.
  w.WriteU32(static_cast<uint32_t>(stats.estimators.size()));
  for (const ServiceStats::EstimatorAccounting& e : stats.estimators) {
    EncodeSummary(w, e.latency);
    EncodeSummary(w, e.qerror);
  }
  return w.TakeBuffer();
}

util::Status DecodeStatsExt(std::string_view ext, ServiceStats& stats) {
  Reader r(ext.substr(sizeof(kStatsExtMagic)));
  auto version = r.ReadU8();
  if (!version.ok()) return version.status();
  if (*version < 1) {
    return util::InvalidArgumentError("bad stats extension version " +
                                      std::to_string(*version));
  }
  auto latency = DecodeSummary(r);
  if (!latency.ok()) return latency.status();
  stats.latency = *latency;
  auto batch_lines = DecodeSummary(r);
  if (!batch_lines.ok()) return batch_lines.status();
  stats.batch_lines = *batch_lines;
  auto fold_millis = DecodeSummary(r);
  if (!fold_millis.ok()) return fold_millis.status();
  stats.fold_millis = *fold_millis;
  auto admitted = r.ReadU64();
  if (!admitted.ok()) return admitted.status();
  stats.admitted_weight = *admitted;
  auto rejected = r.ReadU64();
  if (!rejected.ok()) return rejected.status();
  stats.rejected_weight = *rejected;
  auto loads = r.ReadU64();
  if (!loads.ok()) return loads.status();
  stats.snapshot_loads = *loads;
  auto present = r.ReadU8();
  if (!present.ok()) return present.status();
  stats.server.present = *present != 0;
  uint64_t reserved = 0;  // always-0 slot, read and discarded
  for (uint64_t* field :
       {&stats.server.connections_accepted, &stats.server.connections_active,
        &stats.server.shed_connection_cap, &stats.server.shed_pipeline_cap,
        &reserved, &stats.server.backpressure_events,
        &stats.server.bytes_in, &stats.server.bytes_out,
        &stats.server.frames_estimate, &stats.server.frames_batch,
        &stats.server.frames_other}) {
    auto value = r.ReadU64();
    if (!value.ok()) return value.status();
    *field = *value;
  }
  auto cache_count = r.ReadU32();
  if (!cache_count.ok()) return cache_count.status();
  if (*cache_count > r.remaining()) {
    return util::InvalidArgumentError(
        "cache row count exceeds stats extension");
  }
  stats.caches.reserve(*cache_count);
  for (uint32_t i = 0; i < *cache_count; ++i) {
    ServiceStats::CacheRow cache;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    cache.name = std::move(*name);
    for (uint64_t* field : {&cache.entries, &cache.hits, &cache.misses,
                            &cache.evictions}) {
      auto value = r.ReadU64();
      if (!value.ok()) return value.status();
      *field = *value;
    }
    stats.caches.push_back(std::move(cache));
  }
  auto est_count = r.ReadU32();
  if (!est_count.ok()) return est_count.status();
  if (*est_count != stats.estimators.size()) {
    // The summaries are index-aligned with the v3 estimator list; a
    // mismatch means the frame was assembled inconsistently.
    return util::InvalidArgumentError(
        "stats extension estimator count mismatch");
  }
  for (uint32_t i = 0; i < *est_count; ++i) {
    auto est_latency = DecodeSummary(r);
    if (!est_latency.ok()) return est_latency.status();
    stats.estimators[i].latency = *est_latency;
    auto est_qerror = DecodeSummary(r);
    if (!est_qerror.ok()) return est_qerror.status();
    stats.estimators[i].qerror = *est_qerror;
  }
  // Trailing bytes inside the ext string are a future version's fields.
  stats.v4_wire = true;
  return util::Status::OK();
}

// ---- v5 request-id extension -----------------------------------------------

std::string EncodeRequestIdExt(uint64_t id) {
  Writer w;
  w.WriteRaw(
      std::string_view(kRequestIdExtMagic, sizeof(kRequestIdExtMagic)));
  w.WriteU8(1);  // ext version
  w.WriteU64(id);
  return w.TakeBuffer();
}

util::StatusOr<uint64_t> DecodeRequestIdExt(std::string_view ext) {
  Reader r(ext.substr(sizeof(kRequestIdExtMagic)));
  auto version = r.ReadU8();
  if (!version.ok()) return version.status();
  if (*version < 1) {
    return util::InvalidArgumentError("bad request-id extension version " +
                                      std::to_string(*version));
  }
  auto id = r.ReadU64();
  if (!id.ok()) return id.status();
  // Trailing bytes inside the ext string are a future version's fields.
  return *id;
}

// ---- v5 scorecard extension ------------------------------------------------

std::string EncodeScorecardExt(const ServiceStats& stats) {
  Writer w;
  w.WriteRaw(
      std::string_view(kScorecardExtMagic, sizeof(kScorecardExtMagic)));
  w.WriteU8(1);  // ext version
  w.WriteU8(stats.any_drift ? 1 : 0);
  w.WriteU64(static_cast<uint64_t>(stats.scorecard_window_seconds));
  EncodeSummary(w, stats.latency_1m);
  w.WriteDouble(stats.rate_1m);
  w.WriteU32(static_cast<uint32_t>(stats.scorecard.size()));
  for (const obs::ScorecardClassReport& row : stats.scorecard) {
    w.WriteString(row.key);
    w.WriteString(row.display);
    w.WriteU64(row.hits);
    w.WriteU64(row.under);
    w.WriteU64(row.over);
    EncodeSummary(w, row.qerror);
    w.WriteDouble(row.baseline_median);
    w.WriteU8(row.drifted ? 1 : 0);
    w.WriteDouble(row.worst.qerror);
    w.WriteString(row.worst.line);
    w.WriteDouble(row.worst.estimate);
    w.WriteDouble(row.worst.truth);
    w.WriteString(row.worst.estimator);
  }
  return w.TakeBuffer();
}

util::Status DecodeScorecardExt(std::string_view ext, ServiceStats& stats) {
  Reader r(ext.substr(sizeof(kScorecardExtMagic)));
  auto version = r.ReadU8();
  if (!version.ok()) return version.status();
  if (*version < 1) {
    return util::InvalidArgumentError("bad scorecard extension version " +
                                      std::to_string(*version));
  }
  auto drift = r.ReadU8();
  if (!drift.ok()) return drift.status();
  stats.any_drift = *drift != 0;
  auto window = r.ReadU64();
  if (!window.ok()) return window.status();
  stats.scorecard_window_seconds = static_cast<int64_t>(*window);
  auto latency = DecodeSummary(r);
  if (!latency.ok()) return latency.status();
  stats.latency_1m = *latency;
  auto rate = r.ReadDouble();
  if (!rate.ok()) return rate.status();
  stats.rate_1m = *rate;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (*count > r.remaining()) {
    return util::InvalidArgumentError(
        "scorecard class count exceeds extension payload");
  }
  stats.scorecard.clear();
  stats.scorecard.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    obs::ScorecardClassReport row;
    auto key = r.ReadString();
    if (!key.ok()) return key.status();
    row.key = std::move(*key);
    auto display = r.ReadString();
    if (!display.ok()) return display.status();
    row.display = std::move(*display);
    for (uint64_t* field : {&row.hits, &row.under, &row.over}) {
      auto value = r.ReadU64();
      if (!value.ok()) return value.status();
      *field = *value;
    }
    auto qerror = DecodeSummary(r);
    if (!qerror.ok()) return qerror.status();
    row.qerror = *qerror;
    auto baseline = r.ReadDouble();
    if (!baseline.ok()) return baseline.status();
    row.baseline_median = *baseline;
    auto drifted = r.ReadU8();
    if (!drifted.ok()) return drifted.status();
    row.drifted = *drifted != 0;
    auto worst_q = r.ReadDouble();
    if (!worst_q.ok()) return worst_q.status();
    row.worst.qerror = *worst_q;
    auto line = r.ReadString();
    if (!line.ok()) return line.status();
    row.worst.line = std::move(*line);
    auto estimate = r.ReadDouble();
    if (!estimate.ok()) return estimate.status();
    row.worst.estimate = *estimate;
    auto truth = r.ReadDouble();
    if (!truth.ok()) return truth.status();
    row.worst.truth = *truth;
    auto estimator = r.ReadString();
    if (!estimator.ok()) return estimator.status();
    row.worst.estimator = std::move(*estimator);
    stats.scorecard.push_back(std::move(row));
  }
  // Trailing bytes inside the ext string are a future version's fields.
  stats.scorecard_wire = true;
  return util::Status::OK();
}

// ---- v5 corrections extension ----------------------------------------------

std::string EncodeCorrectionsExt(const ServiceStats& stats) {
  Writer w;
  w.WriteRaw(
      std::string_view(kCorrectionsExtMagic, sizeof(kCorrectionsExtMagic)));
  w.WriteU8(1);  // ext version
  w.WriteU8(static_cast<uint8_t>(stats.feedback_mode));
  w.WriteU64(stats.feedback_classes);
  w.WriteU64(stats.feedback_active);
  w.WriteU64(stats.feedback_evictions);
  w.WriteU64(stats.corrections_applied);
  w.WriteU64(stats.corrections_suppressed);
  EncodeSummary(w, stats.qerror_raw_1m);
  EncodeSummary(w, stats.qerror_corrected_1m);
  w.WriteU32(static_cast<uint32_t>(stats.corrections.size()));
  for (const learn::FeedbackClassReport& row : stats.corrections) {
    w.WriteString(row.key);
    w.WriteString(row.display);
    w.WriteU64(row.hits);
    w.WriteU64(row.samples);
    w.WriteDouble(row.correction);
    w.WriteU8(row.active ? 1 : 0);
  }
  return w.TakeBuffer();
}

util::Status DecodeCorrectionsExt(std::string_view ext,
                                  ServiceStats& stats) {
  Reader r(ext.substr(sizeof(kCorrectionsExtMagic)));
  auto version = r.ReadU8();
  if (!version.ok()) return version.status();
  if (*version < 1) {
    return util::InvalidArgumentError(
        "bad corrections extension version " + std::to_string(*version));
  }
  auto mode = r.ReadU8();
  if (!mode.ok()) return mode.status();
  if (*mode > static_cast<uint8_t>(FeedbackMode::kFrozen)) {
    return util::InvalidArgumentError("unknown feedback mode " +
                                      std::to_string(*mode));
  }
  stats.feedback_mode = static_cast<FeedbackMode>(*mode);
  for (uint64_t* field :
       {&stats.feedback_classes, &stats.feedback_active,
        &stats.feedback_evictions, &stats.corrections_applied,
        &stats.corrections_suppressed}) {
    auto value = r.ReadU64();
    if (!value.ok()) return value.status();
    *field = *value;
  }
  auto raw = DecodeSummary(r);
  if (!raw.ok()) return raw.status();
  stats.qerror_raw_1m = *raw;
  auto corrected = DecodeSummary(r);
  if (!corrected.ok()) return corrected.status();
  stats.qerror_corrected_1m = *corrected;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (*count > r.remaining()) {
    return util::InvalidArgumentError(
        "correction class count exceeds extension payload");
  }
  stats.corrections.clear();
  stats.corrections.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    learn::FeedbackClassReport row;
    auto key = r.ReadString();
    if (!key.ok()) return key.status();
    row.key = std::move(*key);
    auto display = r.ReadString();
    if (!display.ok()) return display.status();
    row.display = std::move(*display);
    auto hits = r.ReadU64();
    if (!hits.ok()) return hits.status();
    row.hits = *hits;
    auto samples = r.ReadU64();
    if (!samples.ok()) return samples.status();
    row.samples = *samples;
    auto correction = r.ReadDouble();
    if (!correction.ok()) return correction.status();
    row.correction = *correction;
    auto active = r.ReadU8();
    if (!active.ok()) return active.status();
    row.active = *active != 0;
    stats.corrections.push_back(std::move(row));
  }
  // Trailing bytes inside the ext string are a future version's fields.
  stats.corrections_wire = true;
  return util::Status::OK();
}

void EncodeBatch(Writer& w, const std::vector<BatchEstimateItem>& batch) {
  w.WriteU32(static_cast<uint32_t>(batch.size()));
  for (const BatchEstimateItem& item : batch) {
    w.WriteU8(static_cast<uint8_t>(item.status.code()));
    w.WriteString(item.status.message());
    if (item.status.ok()) EncodeEstimate(w, item.estimate);
  }
}

util::StatusOr<std::vector<BatchEstimateItem>> DecodeBatch(Reader& r) {
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (*count > r.remaining()) {
    return util::InvalidArgumentError(
        "batch item count exceeds frame payload");
  }
  std::vector<BatchEstimateItem> batch;
  batch.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    BatchEstimateItem item;
    auto code = r.ReadU8();
    if (!code.ok()) return code.status();
    if (*code > static_cast<uint8_t>(util::StatusCode::kResourceExhausted)) {
      return util::InvalidArgumentError("unknown batch item status code " +
                                        std::to_string(*code));
    }
    auto message = r.ReadString();
    if (!message.ok()) return message.status();
    if (*code != 0) {
      item.status = util::Status(static_cast<util::StatusCode>(*code),
                                 std::move(*message));
    } else {
      auto estimate = DecodeEstimate(r);
      if (!estimate.ok()) return estimate.status();
      item.estimate = std::move(*estimate);
    }
    batch.push_back(std::move(item));
  }
  return batch;
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  Writer w;
  w.WriteU8(static_cast<uint8_t>(request.type));
  if (request.type == MessageType::kBatchEstimate) {
    // v3 batch frame: a counted line list replaces the single text field.
    w.WriteU32(static_cast<uint32_t>(request.lines.size()));
    for (const std::string& line : request.lines) w.WriteString(line);
  } else {
    w.WriteString(request.text);
  }
  // v2 trailing field, encoded only when set: a request without a dataset
  // stays byte-identical to a v1 frame (old servers keep accepting it).
  if (!request.dataset.empty()) w.WriteString(request.dataset);
  // v5 trailing field, same contract: no id, no bytes.
  if (request.request_id != 0) {
    w.WriteString(EncodeRequestIdExt(request.request_id));
  }
  return w.TakeBuffer();
}

util::StatusOr<Request> DecodeRequest(std::string_view payload) {
  Reader r(payload);
  auto type = r.ReadU8();
  if (!type.ok()) return type.status();
  if (!ValidType(*type)) {
    return util::UnimplementedError("unknown request type " +
                                    std::to_string(*type));
  }
  Request request;
  request.type = static_cast<MessageType>(*type);
  if (request.type == MessageType::kBatchEstimate) {
    auto count = r.ReadU32();
    if (!count.ok()) return count.status();
    // Every line occupies at least its u64 length prefix, so a count
    // beyond the remaining payload is corruption — reject it before
    // reserve() turns it into a multi-gigabyte allocation.
    if (*count > r.remaining()) {
      return util::InvalidArgumentError(
          "batch line count exceeds frame payload");
    }
    request.lines.reserve(*count);
    for (uint32_t i = 0; i < *count; ++i) {
      auto line = r.ReadString();
      if (!line.ok()) return line.status();
      request.lines.push_back(std::move(*line));
    }
  } else {
    auto text = r.ReadString();
    if (!text.ok()) return text.status();
    request.text = std::move(*text);
  }
  // v5 trailing-field sequence: at most one dataset name (v2), any
  // number of 0xFF-led extension strings — known ones decoded, unknown
  // ones skipped so a newer peer's extras don't fail the frame.
  bool have_dataset = false;
  while (!r.AtEnd()) {
    auto field = r.ReadString();
    if (!field.ok()) return field.status();
    if (IsExtensionField(*field)) {
      if (HasMagic(*field, kRequestIdExtMagic)) {
        auto id = DecodeRequestIdExt(*field);
        if (!id.ok()) return id.status();
        request.request_id = *id;
      }
      continue;
    }
    if (have_dataset) {
      return util::InvalidArgumentError(
          "duplicate dataset field in request frame");
    }
    have_dataset = true;
    request.dataset = std::move(*field);
  }
  return request;
}

std::string EncodeResponse(const Response& response) {
  Writer w;
  w.WriteU8(static_cast<uint8_t>(response.status.code()));
  w.WriteString(response.status.message());
  w.WriteU8(static_cast<uint8_t>(response.type));
  if (response.status.ok()) {
    switch (response.type) {
      case MessageType::kEstimate:
        EncodeEstimate(w, response.estimate);
        break;
      case MessageType::kApplyDeltas:
      case MessageType::kSwapSnapshot:
        EncodeSwap(w, response.swap);
        break;
      case MessageType::kStats:
        EncodeStats(w, response.stats);
        break;
      case MessageType::kPing:
      case MessageType::kShutdown:
        w.WriteString(response.text);
        break;
      case MessageType::kBatchEstimate:
        EncodeBatch(w, response.batch);
        break;
    }
  }
  // v2 echo, encoded only when the server resolved an explicit dataset
  // (responses to v1 requests stay byte-identical to v1 frames).
  if (!response.dataset.empty()) w.WriteString(response.dataset);
  // v4 opt-in: the trailing stats extension, only on OK stats responses
  // whose request asked for it. The v5 scorecard opt-in implies it.
  if (response.status.ok() && response.type == MessageType::kStats &&
      (response.stats.v4_wire || response.stats.scorecard_wire)) {
    w.WriteString(EncodeStatsExt(response.stats));
  }
  // v5 opt-in: the trailing scorecard extension.
  if (response.status.ok() && response.type == MessageType::kStats &&
      response.stats.scorecard_wire) {
    w.WriteString(EncodeScorecardExt(response.stats));
  }
  // Corrections extension, same opt-in; sent only when the service
  // filled corrections state (a feedback-aware v5 server).
  if (response.status.ok() && response.type == MessageType::kStats &&
      response.stats.corrections_wire) {
    w.WriteString(EncodeCorrectionsExt(response.stats));
  }
  // v5 echo, same contract as the dataset echo: only when the request
  // carried an id.
  if (response.request_id != 0) {
    w.WriteString(EncodeRequestIdExt(response.request_id));
  }
  return w.TakeBuffer();
}

util::StatusOr<Response> DecodeResponse(std::string_view payload) {
  Reader r(payload);
  auto code = r.ReadU8();
  if (!code.ok()) return code.status();
  auto message = r.ReadString();
  if (!message.ok()) return message.status();
  auto type = r.ReadU8();
  if (!type.ok()) return type.status();
  if (!ValidType(*type)) {
    return util::InvalidArgumentError("unknown response type " +
                                      std::to_string(*type));
  }
  Response response;
  response.type = static_cast<MessageType>(*type);
  // v5 trailing-field sequence (shared by the error and OK paths): at
  // most one dataset echo (v2), any number of 0xFF-led extension
  // strings — the stats/scorecard extensions on kStats frames, the
  // request-id echo on any frame; unknown magics are a newer peer's
  // fields and are skipped.
  auto read_trailing_fields = [&r, &response]() -> util::Status {
    bool have_dataset = false;
    while (!r.AtEnd()) {
      auto field = r.ReadString();
      if (!field.ok()) return field.status();
      if (IsExtensionField(*field)) {
        if (response.type == MessageType::kStats &&
            HasMagic(*field, kStatsExtMagic)) {
          CEGRAPH_RETURN_IF_ERROR(DecodeStatsExt(*field, response.stats));
        } else if (response.type == MessageType::kStats &&
                   HasMagic(*field, kScorecardExtMagic)) {
          CEGRAPH_RETURN_IF_ERROR(
              DecodeScorecardExt(*field, response.stats));
        } else if (response.type == MessageType::kStats &&
                   HasMagic(*field, kCorrectionsExtMagic)) {
          CEGRAPH_RETURN_IF_ERROR(
              DecodeCorrectionsExt(*field, response.stats));
        } else if (HasMagic(*field, kRequestIdExtMagic)) {
          auto id = DecodeRequestIdExt(*field);
          if (!id.ok()) return id.status();
          response.request_id = *id;
        }
        continue;
      }
      if (have_dataset) {
        return util::InvalidArgumentError(
            "duplicate dataset field in response frame");
      }
      have_dataset = true;
      response.dataset = std::move(*field);
    }
    return util::Status::OK();
  };
  if (*code != 0) {
    if (*code > static_cast<uint8_t>(util::StatusCode::kResourceExhausted)) {
      return util::InvalidArgumentError("unknown status code " +
                                        std::to_string(*code));
    }
    response.status = util::Status(static_cast<util::StatusCode>(*code),
                                   std::move(*message));
    CEGRAPH_RETURN_IF_ERROR(read_trailing_fields());
    return response;
  }
  switch (response.type) {
    case MessageType::kEstimate: {
      auto estimate = DecodeEstimate(r);
      if (!estimate.ok()) return estimate.status();
      response.estimate = std::move(*estimate);
      break;
    }
    case MessageType::kApplyDeltas:
    case MessageType::kSwapSnapshot: {
      auto swap = DecodeSwap(r);
      if (!swap.ok()) return swap.status();
      response.swap = *swap;
      break;
    }
    case MessageType::kStats: {
      auto stats = DecodeStats(r);
      if (!stats.ok()) return stats.status();
      response.stats = std::move(*stats);
      break;
    }
    case MessageType::kPing:
    case MessageType::kShutdown: {
      auto text = r.ReadString();
      if (!text.ok()) return text.status();
      response.text = std::move(*text);
      break;
    }
    case MessageType::kBatchEstimate: {
      auto batch = DecodeBatch(r);
      if (!batch.ok()) return batch.status();
      response.batch = std::move(*batch);
      break;
    }
  }
  CEGRAPH_RETURN_IF_ERROR(read_trailing_fields());
  return response;
}

// ---- Stream framing ----

namespace {

util::Status WriteAll(int fd, const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd, data + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return util::InternalError(std::string("write: ") +
                                 std::strerror(errno));
    }
    written += static_cast<size_t>(rc);
  }
  return util::Status::OK();
}

/// Reads exactly `n` bytes. `eof_ok` marks a clean close at offset 0.
util::Status ReadAll(int fd, char* data, size_t n, bool eof_ok) {
  size_t have = 0;
  while (have < n) {
    const ssize_t rc = ::read(fd, data + have, n - have);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return util::InternalError(std::string("read: ") +
                                 std::strerror(errno));
    }
    if (rc == 0) {
      if (eof_ok && have == 0) return util::NotFoundError(kConnectionClosed);
      return util::OutOfRangeError("truncated frame (peer closed mid-read)");
    }
    have += static_cast<size_t>(rc);
  }
  return util::Status::OK();
}

}  // namespace

util::Status WriteFrame(int fd, std::string_view payload) {
  Writer w;
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  w.WriteRaw(payload);
  return WriteAll(fd, w.buffer().data(), w.buffer().size());
}

util::StatusOr<std::string> ReadFrame(int fd, uint32_t max_bytes) {
  char prefix[4];
  CEGRAPH_RETURN_IF_ERROR(ReadAll(fd, prefix, 4, /*eof_ok=*/true));
  Reader r(std::string_view(prefix, 4));
  const uint32_t length = *r.ReadU32();
  if (length > max_bytes) {
    return util::InvalidArgumentError(
        "frame of " + std::to_string(length) + " bytes exceeds the " +
        std::to_string(max_bytes) + "-byte limit");
  }
  std::string payload(length, '\0');
  CEGRAPH_RETURN_IF_ERROR(ReadAll(fd, payload.data(), length,
                                  /*eof_ok=*/false));
  return payload;
}

bool IsConnectionClosed(const util::Status& status) {
  return status.code() == util::StatusCode::kNotFound &&
         status.message() == kConnectionClosed;
}

// ---- TCP helpers ----

util::StatusOr<int> DialTcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::InternalError(std::string("socket: ") +
                               std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::InvalidArgumentError("unparseable IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return util::InternalError("connect " + host + ":" +
                               std::to_string(port) + ": " + detail);
  }
  SetTcpNoDelay(fd);
  return fd;
}

util::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return util::InternalError(std::string("fcntl(O_NONBLOCK): ") +
                               std::strerror(errno));
  }
  return util::Status::OK();
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

util::StatusOr<int> ListenTcp(const std::string& host, int port,
                              int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::InternalError(std::string("socket: ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::InvalidArgumentError("unparseable IPv4 address: " + host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return util::InternalError("bind " + host + ":" + std::to_string(port) +
                               ": " + detail);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return util::InternalError("listen: " + detail);
  }
  return fd;
}

util::StatusOr<int> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return util::InternalError(std::string("getsockname: ") +
                               std::strerror(errno));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

util::StatusOr<Response> RoundTrip(int fd, const Request& request) {
  CEGRAPH_RETURN_IF_ERROR(WriteFrame(fd, EncodeRequest(request)));
  auto payload = ReadFrame(fd);
  if (!payload.ok()) return payload.status();
  return DecodeResponse(*payload);
}

}  // namespace cegraph::service::wire
