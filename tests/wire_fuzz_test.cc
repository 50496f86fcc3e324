// Deterministic fuzz/property tests for the wire-protocol codecs:
// encode -> decode must round-trip every request/response shape (the v2
// `dataset` field and the v3 batch frames included), and random byte
// mutations of valid frames — or outright random bytes — must never crash
// the decoders (they return a clean Status instead; ASan/UBSan in CI turns
// any lurking UB into a failure). Golden-byte tests pin the v1/v2/v3
// layouts: adding the v3 batch type (and later the v4 stats extension)
// must not shift a single byte of the frames old clients and servers
// exchange. The seed is logged on every run so a failure reproduces with
// CEGRAPH_FUZZ_SEED=<seed>.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/request.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/serde.h"

namespace cegraph::service::wire {
namespace {

uint64_t FuzzSeed() {
  if (const char* env = std::getenv("CEGRAPH_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260728;
}

/// One shared generator per test, seed printed for reproduction.
class Fuzz {
 public:
  Fuzz() : seed_(FuzzSeed()), rng_(seed_) {
    std::printf("[ fuzz seed %llu — rerun with CEGRAPH_FUZZ_SEED ]\n",
                static_cast<unsigned long long>(seed_));
  }

  uint64_t U64() { return rng_(); }
  uint32_t U32() { return static_cast<uint32_t>(rng_()); }
  /// Uniform in [0, n).
  size_t Index(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Coin() { return (rng_() & 1) != 0; }
  /// A finite double that compares bit-identically after a round trip.
  double FiniteDouble() {
    return static_cast<double>(static_cast<int64_t>(rng_())) / 1024.0;
  }
  std::string Bytes(size_t max_len) {
    std::string out(Index(max_len + 1), '\0');
    for (char& c : out) c = static_cast<char>(rng_());
    return out;
  }

 private:
  uint64_t seed_;
  std::mt19937_64 rng_;
};

MessageType RandomType(Fuzz& fuzz) {
  return static_cast<MessageType>(1 + fuzz.Index(7));
}

/// A dataset name that can never collide with an extension string: the
/// wire spec reserves leading 0xFF for extensions, in both directions.
std::string RandomDataset(Fuzz& fuzz) {
  std::string dataset = fuzz.Bytes(16);
  if (!dataset.empty() && dataset[0] == '\xff') dataset[0] = 'd';
  return dataset;
}

Request RandomRequest(Fuzz& fuzz) {
  Request request;
  request.type = RandomType(fuzz);
  if (request.type == MessageType::kBatchEstimate) {
    // v3 frame: a counted line list travels instead of the text field.
    const size_t lines = fuzz.Index(5);
    for (size_t i = 0; i < lines; ++i) {
      request.lines.push_back(fuzz.Bytes(64));
    }
  } else {
    request.text = fuzz.Bytes(64);
  }
  if (fuzz.Coin()) request.dataset = RandomDataset(fuzz);
  // v5: the optional end-to-end request id.
  if (fuzz.Coin()) request.request_id = fuzz.U64();
  return request;
}

EstimateResponse RandomEstimate(Fuzz& fuzz) {
  EstimateResponse estimate;
  estimate.epoch = fuzz.U64();
  estimate.state_version = fuzz.U64();
  estimate.total_micros = fuzz.FiniteDouble();
  estimate.has_truth = fuzz.Coin();
  estimate.truth = fuzz.FiniteDouble();
  const size_t results = fuzz.Index(5);
  for (size_t i = 0; i < results; ++i) {
    EstimatorResult result;
    result.name = fuzz.Bytes(24);
    result.ok = fuzz.Coin();
    result.estimate = fuzz.FiniteDouble();
    result.error = fuzz.Bytes(24);
    result.micros = fuzz.FiniteDouble();
    result.qerror = fuzz.FiniteDouble();
    estimate.results.push_back(std::move(result));
  }
  return estimate;
}

obs::QuantileSummary RandomSummary(Fuzz& fuzz) {
  obs::QuantileSummary s;
  s.count = fuzz.U64();
  s.mean = fuzz.FiniteDouble();
  s.p50 = fuzz.FiniteDouble();
  s.p90 = fuzz.FiniteDouble();
  s.p99 = fuzz.FiniteDouble();
  s.max = fuzz.FiniteDouble();
  return s;
}

SnapshotLoadBreakdown RandomLoadBreakdown(Fuzz& fuzz) {
  SnapshotLoadBreakdown load;
  load.loaded = fuzz.Coin();
  load.mapped = fuzz.Coin();
  load.mapped_bytes = fuzz.U64();
  load.map_millis = fuzz.FiniteDouble();
  load.parse_millis = fuzz.FiniteDouble();
  load.snapshot_epoch = fuzz.U64();
  return load;
}

Response RandomResponse(Fuzz& fuzz) {
  Response response;
  response.type = RandomType(fuzz);
  if (fuzz.Coin()) {
    response.status =
        util::Status(static_cast<util::StatusCode>(1 + fuzz.Index(7)),
                     fuzz.Bytes(48));
  } else {
    switch (response.type) {
      case MessageType::kEstimate:
        response.estimate = RandomEstimate(fuzz);
        break;
      case MessageType::kApplyDeltas:
      case MessageType::kSwapSnapshot:
        response.swap.epoch = fuzz.U64();
        response.swap.version = fuzz.U64();
        response.swap.applied_ops = fuzz.U32();
        response.swap.trimmed_log_ops = fuzz.U32();
        response.swap.maintenance.inserted_edges = fuzz.U32();
        response.swap.maintenance.deleted_edges = fuzz.U32();
        response.swap.maintenance.changed_labels = fuzz.U32();
        response.swap.maintenance.ceg_evicted = fuzz.U32();
        response.swap.snapshot_stale = fuzz.Coin();
        response.swap.snapshot_replayed_deltas = fuzz.U32();
        response.swap.snapshot_load = RandomLoadBreakdown(fuzz);
        break;
      case MessageType::kStats: {
        response.stats.served = fuzz.U64();
        response.stats.rejected = fuzz.U64();
        response.stats.request_errors = fuzz.U64();
        response.stats.swaps = fuzz.U64();
        response.stats.epoch = fuzz.U64();
        response.stats.version = fuzz.U64();
        response.stats.pending_delta_ops = fuzz.U32();
        response.stats.replay_log_ops = fuzz.U32();
        response.stats.min_replayable_epoch = fuzz.U64();
        response.stats.in_flight = static_cast<int64_t>(fuzz.U32());
        response.stats.peak_in_flight = static_cast<int64_t>(fuzz.U32());
        response.stats.mean_latency_micros = fuzz.FiniteDouble();
        const size_t estimators = fuzz.Index(4);
        for (size_t i = 0; i < estimators; ++i) {
          ServiceStats::EstimatorAccounting e;
          e.name = fuzz.Bytes(24);
          e.requests = fuzz.U64();
          e.failures = fuzz.U64();
          e.mean_micros = fuzz.FiniteDouble();
          e.mean_qerror = fuzz.FiniteDouble();
          response.stats.estimators.push_back(std::move(e));
        }
        response.stats.snapshot_load = RandomLoadBreakdown(fuzz);
        if (fuzz.Coin()) {
          // v4: the observability extension rides as a trailing string.
          response.stats.v4_wire = true;
          response.stats.latency = RandomSummary(fuzz);
          response.stats.batch_lines = RandomSummary(fuzz);
          response.stats.fold_millis = RandomSummary(fuzz);
          response.stats.admitted_weight = fuzz.U64();
          response.stats.rejected_weight = fuzz.U64();
          response.stats.snapshot_loads = fuzz.U64();
          response.stats.server.present = fuzz.Coin();
          response.stats.server.connections_accepted = fuzz.U64();
          response.stats.server.connections_active = fuzz.U64();
          response.stats.server.shed_connection_cap = fuzz.U64();
          response.stats.server.shed_pipeline_cap = fuzz.U64();
          response.stats.server.backpressure_events = fuzz.U64();
          response.stats.server.bytes_in = fuzz.U64();
          response.stats.server.bytes_out = fuzz.U64();
          response.stats.server.frames_estimate = fuzz.U64();
          response.stats.server.frames_batch = fuzz.U64();
          response.stats.server.frames_other = fuzz.U64();
          const size_t caches = fuzz.Index(4);
          for (size_t i = 0; i < caches; ++i) {
            ServiceStats::CacheRow cache;
            cache.name = fuzz.Bytes(24);
            cache.entries = fuzz.U64();
            cache.hits = fuzz.U64();
            cache.misses = fuzz.U64();
            cache.evictions = fuzz.U64();
            response.stats.caches.push_back(std::move(cache));
          }
          for (ServiceStats::EstimatorAccounting& e :
               response.stats.estimators) {
            e.latency = RandomSummary(fuzz);
            e.qerror = RandomSummary(fuzz);
          }
          if (fuzz.Coin()) {
            // v5: the scorecard extension rides as another trailing
            // string (opting in implies the v4 extension, so it only
            // appears inside this branch).
            response.stats.scorecard_wire = true;
            response.stats.any_drift = fuzz.Coin();
            response.stats.scorecard_window_seconds =
                static_cast<int64_t>(fuzz.U32());
            response.stats.latency_1m = RandomSummary(fuzz);
            response.stats.rate_1m = fuzz.FiniteDouble();
            const size_t classes = fuzz.Index(4);
            for (size_t i = 0; i < classes; ++i) {
              obs::ScorecardClassReport row;
              row.key = fuzz.Bytes(24);
              row.display = fuzz.Bytes(24);
              row.hits = fuzz.U64();
              row.under = fuzz.U64();
              row.over = fuzz.U64();
              row.qerror = RandomSummary(fuzz);
              row.baseline_median = fuzz.FiniteDouble();
              row.drifted = fuzz.Coin();
              row.worst.qerror = fuzz.FiniteDouble();
              row.worst.line = fuzz.Bytes(48);
              row.worst.estimate = fuzz.FiniteDouble();
              row.worst.truth = fuzz.FiniteDouble();
              row.worst.estimator = fuzz.Bytes(16);
              response.stats.scorecard.push_back(std::move(row));
            }
          }
        }
        break;
      }
      case MessageType::kPing:
      case MessageType::kShutdown:
        response.text = fuzz.Bytes(48);
        break;
      case MessageType::kBatchEstimate: {
        const size_t items = fuzz.Index(5);
        for (size_t i = 0; i < items; ++i) {
          BatchEstimateItem item;
          if (fuzz.Coin()) {
            item.status = util::Status(
                static_cast<util::StatusCode>(1 + fuzz.Index(7)),
                fuzz.Bytes(48));
          } else {
            item.estimate = RandomEstimate(fuzz);
          }
          response.batch.push_back(std::move(item));
        }
        break;
      }
    }
  }
  if (fuzz.Coin()) response.dataset = RandomDataset(fuzz);
  // v5: the request-id echo travels on error responses too.
  if (fuzz.Coin()) response.request_id = fuzz.U64();
  return response;
}

void ExpectEqualSummary(const obs::QuantileSummary& a,
                        const obs::QuantileSummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
}

void ExpectEqual(const Request& a, const Request& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.request_id, b.request_id);
  ASSERT_EQ(a.lines.size(), b.lines.size());
  for (size_t i = 0; i < a.lines.size(); ++i) {
    EXPECT_EQ(a.lines[i], b.lines[i]);
  }
}

void ExpectEqualEstimate(const EstimateResponse& a,
                         const EstimateResponse& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.state_version, b.state_version);
  EXPECT_EQ(a.total_micros, b.total_micros);
  EXPECT_EQ(a.has_truth, b.has_truth);
  EXPECT_EQ(a.truth, b.truth);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].name, b.results[i].name);
    EXPECT_EQ(a.results[i].ok, b.results[i].ok);
    EXPECT_EQ(a.results[i].estimate, b.results[i].estimate);
    EXPECT_EQ(a.results[i].error, b.results[i].error);
    EXPECT_EQ(a.results[i].micros, b.results[i].micros);
    EXPECT_EQ(a.results[i].qerror, b.results[i].qerror);
  }
}

void ExpectEqualLoad(const SnapshotLoadBreakdown& a,
                     const SnapshotLoadBreakdown& b) {
  EXPECT_EQ(a.loaded, b.loaded);
  EXPECT_EQ(a.mapped, b.mapped);
  EXPECT_EQ(a.mapped_bytes, b.mapped_bytes);
  EXPECT_EQ(a.map_millis, b.map_millis);
  EXPECT_EQ(a.parse_millis, b.parse_millis);
  EXPECT_EQ(a.snapshot_epoch, b.snapshot_epoch);
}

void ExpectEqual(const Response& a, const Response& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.status.message(), b.status.message());
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.request_id, b.request_id);
  if (!a.status.ok()) return;  // bodies travel only on OK
  switch (a.type) {
    case MessageType::kEstimate:
      ExpectEqualEstimate(a.estimate, b.estimate);
      break;
    case MessageType::kApplyDeltas:
    case MessageType::kSwapSnapshot:
      EXPECT_EQ(a.swap.epoch, b.swap.epoch);
      EXPECT_EQ(a.swap.version, b.swap.version);
      EXPECT_EQ(a.swap.applied_ops, b.swap.applied_ops);
      EXPECT_EQ(a.swap.trimmed_log_ops, b.swap.trimmed_log_ops);
      EXPECT_EQ(a.swap.maintenance.inserted_edges,
                b.swap.maintenance.inserted_edges);
      EXPECT_EQ(a.swap.maintenance.deleted_edges,
                b.swap.maintenance.deleted_edges);
      EXPECT_EQ(a.swap.maintenance.changed_labels,
                b.swap.maintenance.changed_labels);
      // Evictions travel summed into the CEG slot (see EncodeSwap).
      EXPECT_EQ(a.swap.maintenance.total_evicted(),
                b.swap.maintenance.total_evicted());
      EXPECT_EQ(a.swap.snapshot_stale, b.swap.snapshot_stale);
      EXPECT_EQ(a.swap.snapshot_replayed_deltas,
                b.swap.snapshot_replayed_deltas);
      ExpectEqualLoad(a.swap.snapshot_load, b.swap.snapshot_load);
      break;
    case MessageType::kStats: {
      EXPECT_EQ(a.stats.served, b.stats.served);
      EXPECT_EQ(a.stats.rejected, b.stats.rejected);
      EXPECT_EQ(a.stats.request_errors, b.stats.request_errors);
      EXPECT_EQ(a.stats.swaps, b.stats.swaps);
      EXPECT_EQ(a.stats.epoch, b.stats.epoch);
      EXPECT_EQ(a.stats.version, b.stats.version);
      EXPECT_EQ(a.stats.pending_delta_ops, b.stats.pending_delta_ops);
      EXPECT_EQ(a.stats.replay_log_ops, b.stats.replay_log_ops);
      EXPECT_EQ(a.stats.min_replayable_epoch,
                b.stats.min_replayable_epoch);
      EXPECT_EQ(a.stats.in_flight, b.stats.in_flight);
      EXPECT_EQ(a.stats.peak_in_flight, b.stats.peak_in_flight);
      EXPECT_EQ(a.stats.mean_latency_micros, b.stats.mean_latency_micros);
      ASSERT_EQ(a.stats.estimators.size(), b.stats.estimators.size());
      for (size_t i = 0; i < a.stats.estimators.size(); ++i) {
        EXPECT_EQ(a.stats.estimators[i].name, b.stats.estimators[i].name);
        EXPECT_EQ(a.stats.estimators[i].requests,
                  b.stats.estimators[i].requests);
        EXPECT_EQ(a.stats.estimators[i].failures,
                  b.stats.estimators[i].failures);
        EXPECT_EQ(a.stats.estimators[i].mean_micros,
                  b.stats.estimators[i].mean_micros);
        EXPECT_EQ(a.stats.estimators[i].mean_qerror,
                  b.stats.estimators[i].mean_qerror);
      }
      ExpectEqualLoad(a.stats.snapshot_load, b.stats.snapshot_load);
      EXPECT_EQ(a.stats.v4_wire, b.stats.v4_wire);
      if (a.stats.v4_wire) {
        ExpectEqualSummary(a.stats.latency, b.stats.latency);
        ExpectEqualSummary(a.stats.batch_lines, b.stats.batch_lines);
        ExpectEqualSummary(a.stats.fold_millis, b.stats.fold_millis);
        EXPECT_EQ(a.stats.admitted_weight, b.stats.admitted_weight);
        EXPECT_EQ(a.stats.rejected_weight, b.stats.rejected_weight);
        EXPECT_EQ(a.stats.snapshot_loads, b.stats.snapshot_loads);
        EXPECT_EQ(a.stats.server.present, b.stats.server.present);
        EXPECT_EQ(a.stats.server.connections_accepted,
                  b.stats.server.connections_accepted);
        EXPECT_EQ(a.stats.server.connections_active,
                  b.stats.server.connections_active);
        EXPECT_EQ(a.stats.server.shed_connection_cap,
                  b.stats.server.shed_connection_cap);
        EXPECT_EQ(a.stats.server.shed_pipeline_cap,
                  b.stats.server.shed_pipeline_cap);
        EXPECT_EQ(a.stats.server.backpressure_events,
                  b.stats.server.backpressure_events);
        EXPECT_EQ(a.stats.server.bytes_in, b.stats.server.bytes_in);
        EXPECT_EQ(a.stats.server.bytes_out, b.stats.server.bytes_out);
        EXPECT_EQ(a.stats.server.frames_estimate,
                  b.stats.server.frames_estimate);
        EXPECT_EQ(a.stats.server.frames_batch,
                  b.stats.server.frames_batch);
        EXPECT_EQ(a.stats.server.frames_other,
                  b.stats.server.frames_other);
        ASSERT_EQ(a.stats.caches.size(), b.stats.caches.size());
        for (size_t i = 0; i < a.stats.caches.size(); ++i) {
          EXPECT_EQ(a.stats.caches[i].name, b.stats.caches[i].name);
          EXPECT_EQ(a.stats.caches[i].entries, b.stats.caches[i].entries);
          EXPECT_EQ(a.stats.caches[i].hits, b.stats.caches[i].hits);
          EXPECT_EQ(a.stats.caches[i].misses, b.stats.caches[i].misses);
          EXPECT_EQ(a.stats.caches[i].evictions,
                    b.stats.caches[i].evictions);
        }
        for (size_t i = 0; i < a.stats.estimators.size(); ++i) {
          ExpectEqualSummary(a.stats.estimators[i].latency,
                             b.stats.estimators[i].latency);
          ExpectEqualSummary(a.stats.estimators[i].qerror,
                             b.stats.estimators[i].qerror);
        }
      }
      EXPECT_EQ(a.stats.scorecard_wire, b.stats.scorecard_wire);
      if (a.stats.scorecard_wire) {
        EXPECT_EQ(a.stats.any_drift, b.stats.any_drift);
        EXPECT_EQ(a.stats.scorecard_window_seconds,
                  b.stats.scorecard_window_seconds);
        ExpectEqualSummary(a.stats.latency_1m, b.stats.latency_1m);
        EXPECT_EQ(a.stats.rate_1m, b.stats.rate_1m);
        ASSERT_EQ(a.stats.scorecard.size(), b.stats.scorecard.size());
        for (size_t i = 0; i < a.stats.scorecard.size(); ++i) {
          const obs::ScorecardClassReport& x = a.stats.scorecard[i];
          const obs::ScorecardClassReport& y = b.stats.scorecard[i];
          EXPECT_EQ(x.key, y.key);
          EXPECT_EQ(x.display, y.display);
          EXPECT_EQ(x.hits, y.hits);
          EXPECT_EQ(x.under, y.under);
          EXPECT_EQ(x.over, y.over);
          ExpectEqualSummary(x.qerror, y.qerror);
          EXPECT_EQ(x.baseline_median, y.baseline_median);
          EXPECT_EQ(x.drifted, y.drifted);
          EXPECT_EQ(x.worst.qerror, y.worst.qerror);
          EXPECT_EQ(x.worst.line, y.worst.line);
          EXPECT_EQ(x.worst.estimate, y.worst.estimate);
          EXPECT_EQ(x.worst.truth, y.worst.truth);
          EXPECT_EQ(x.worst.estimator, y.worst.estimator);
        }
      }
      break;
    }
    case MessageType::kPing:
    case MessageType::kShutdown:
      EXPECT_EQ(a.text, b.text);
      break;
    case MessageType::kBatchEstimate:
      ASSERT_EQ(a.batch.size(), b.batch.size());
      for (size_t i = 0; i < a.batch.size(); ++i) {
        EXPECT_EQ(a.batch[i].status.code(), b.batch[i].status.code());
        EXPECT_EQ(a.batch[i].status.message(), b.batch[i].status.message());
        if (a.batch[i].status.ok()) {
          ExpectEqualEstimate(a.batch[i].estimate, b.batch[i].estimate);
        }
      }
      break;
  }
}

TEST(WireFuzzTest, RequestRoundTripAllTypesIncludingDataset) {
  Fuzz fuzz;
  for (int i = 0; i < 2000; ++i) {
    const Request request = RandomRequest(fuzz);
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " at iteration " << i;
    ExpectEqual(request, *decoded);
  }
}

TEST(WireFuzzTest, ResponseRoundTripAllTypesIncludingDataset) {
  Fuzz fuzz;
  for (int i = 0; i < 2000; ++i) {
    const Response response = RandomResponse(fuzz);
    auto decoded = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " at iteration " << i;
    ExpectEqual(response, *decoded);
  }
}

/// Applies 1..8 random single-byte flips, plus an occasional truncation
/// or extension, to a valid payload.
std::string Mutate(Fuzz& fuzz, std::string payload) {
  const size_t flips = 1 + fuzz.Index(8);
  for (size_t f = 0; f < flips && !payload.empty(); ++f) {
    payload[fuzz.Index(payload.size())] ^=
        static_cast<char>(1 + fuzz.Index(255));
  }
  if (fuzz.Coin() && !payload.empty()) {
    payload.resize(fuzz.Index(payload.size()));  // truncate
  } else if (fuzz.Coin()) {
    payload += fuzz.Bytes(16);  // trailing garbage
  }
  return payload;
}

TEST(WireFuzzTest, MutatedRequestFramesNeverCrashDecoder) {
  Fuzz fuzz;
  size_t decoded_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string payload =
        Mutate(fuzz, EncodeRequest(RandomRequest(fuzz)));
    auto decoded = DecodeRequest(payload);  // must return, never crash
    decoded_ok += decoded.ok() ? 1 : 0;
  }
  // Some mutations legitimately decode (e.g. a flipped text byte); the
  // assertion is only that nothing crashed and both outcomes occur.
  EXPECT_GT(decoded_ok, 0u);
}

TEST(WireFuzzTest, MutatedResponseFramesNeverCrashDecoder) {
  Fuzz fuzz;
  size_t decoded_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string payload =
        Mutate(fuzz, EncodeResponse(RandomResponse(fuzz)));
    auto decoded = DecodeResponse(payload);
    decoded_ok += decoded.ok() ? 1 : 0;
  }
  EXPECT_GT(decoded_ok, 0u);
}

TEST(WireFuzzTest, RandomGarbageNeverCrashesEitherDecoder) {
  Fuzz fuzz;
  for (int i = 0; i < 5000; ++i) {
    const std::string garbage = fuzz.Bytes(128);
    (void)DecodeRequest(garbage);
    (void)DecodeResponse(garbage);
  }
}

TEST(WireFuzzTest, V1FramesDecodeWithEmptyDataset) {
  // A v1 client's frame is exactly "type + text": the decoder must route
  // it to the default dataset (empty field), not reject it.
  Request v1;
  v1.type = MessageType::kEstimate;
  v1.text = "(a)-[3]->(b)";
  const std::string payload = EncodeRequest(v1);  // empty dataset == v1
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->dataset.empty());
}

// ---- Golden v1/v2 byte layouts ----
//
// These frames are hand-assembled with util::serde::Writer — the same
// primitive layer the codecs use, but never the codecs themselves. If the
// v3 batch work (or anything later) shifts even one byte of the v1/v2
// layouts, old clients and servers break; these tests pin both directions.

TEST(WireFuzzTest, GoldenV1RequestBytesAreStable) {
  Request request;
  request.type = MessageType::kEstimate;
  request.text = "(a)-[3]->(b)";

  util::serde::Writer w;
  w.WriteU8(1);  // kEstimate
  w.WriteString("(a)-[3]->(b)");
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

TEST(WireFuzzTest, GoldenV2RequestBytesAreStable) {
  Request request;
  request.type = MessageType::kPing;
  request.text = "hello";
  request.dataset = "alpha";

  util::serde::Writer w;
  w.WriteU8(5);  // kPing
  w.WriteString("hello");
  w.WriteString("alpha");  // v2 trailing dataset
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

TEST(WireFuzzTest, GoldenV1ResponseBytesAreStable) {
  Response response;
  response.type = MessageType::kPing;
  response.text = "pong";

  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(5);       // kPing
  w.WriteString("pong");
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(response, *decoded);
}

TEST(WireFuzzTest, GoldenV2ErrorResponseBytesAreStable) {
  Response response;
  response.type = MessageType::kEstimate;
  response.status = util::InvalidArgumentError("bad line");
  response.dataset = "beta";

  util::serde::Writer w;
  w.WriteU8(static_cast<uint8_t>(util::StatusCode::kInvalidArgument));
  w.WriteString("bad line");
  w.WriteU8(1);           // kEstimate
  w.WriteString("beta");  // v2 trailing dataset echo (no body on error)
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(response, *decoded);
}

TEST(WireFuzzTest, GoldenV3BatchRequestBytesAreStable) {
  Request request;
  request.type = MessageType::kBatchEstimate;
  request.lines = {"(a)-[3]->(b)", "(a)-[1]->(b)"};
  request.dataset = "alpha";

  util::serde::Writer w;
  w.WriteU8(7);   // kBatchEstimate
  w.WriteU32(2);  // line count
  w.WriteString("(a)-[3]->(b)");
  w.WriteString("(a)-[1]->(b)");
  w.WriteString("alpha");  // dataset still trails, v2-style
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

// ---- v4 stats extension ----

void WriteGoldenSummary(util::serde::Writer& w, uint64_t count,
                        double mean, double p50, double p90, double p99,
                        double max) {
  w.WriteU64(count);
  w.WriteDouble(mean);
  w.WriteDouble(p50);
  w.WriteDouble(p90);
  w.WriteDouble(p99);
  w.WriteDouble(max);
}

/// The v3 stats body for a server with one estimator and fixed numbers —
/// shared by the golden v3 and golden v4 tests below.
void WriteGoldenStatsBody(util::serde::Writer& w) {
  w.WriteU64(100);  // served
  w.WriteU64(3);    // rejected
  w.WriteU64(2);    // request_errors
  w.WriteU64(1);    // swaps
  w.WriteU64(9);    // epoch
  w.WriteU64(4);    // version
  w.WriteU64(0);    // pending_delta_ops
  w.WriteU64(0);    // replay_log_ops
  w.WriteU64(9);    // min_replayable_epoch
  w.WriteU64(0);    // in_flight
  w.WriteU64(8);    // peak_in_flight
  w.WriteDouble(12.5);  // mean_latency_micros
  w.WriteU32(1);        // estimator count
  w.WriteString("molp");
  w.WriteU64(100);     // requests
  w.WriteU64(0);       // failures
  w.WriteDouble(7.0);  // mean_micros
  w.WriteDouble(1.5);  // mean_qerror
  w.WriteU8(0);        // load.loaded
  w.WriteU8(0);        // load.mapped
  w.WriteU64(0);       // load.mapped_bytes
  w.WriteDouble(0);    // load.map_millis
  w.WriteDouble(0);    // load.parse_millis
  w.WriteU64(0);       // load.snapshot_epoch
}

ServiceStats GoldenStats() {
  ServiceStats stats;
  stats.served = 100;
  stats.rejected = 3;
  stats.request_errors = 2;
  stats.swaps = 1;
  stats.epoch = 9;
  stats.version = 4;
  stats.min_replayable_epoch = 9;
  stats.peak_in_flight = 8;
  stats.mean_latency_micros = 12.5;
  ServiceStats::EstimatorAccounting e;
  e.name = "molp";
  e.requests = 100;
  e.mean_micros = 7.0;
  e.mean_qerror = 1.5;
  stats.estimators.push_back(std::move(e));
  return stats;
}

TEST(WireFuzzTest, GoldenV3StatsResponseBytesAreStable) {
  // A v3 stats reply (no extension requested) must stay byte-identical
  // to the pre-v4 layout, and decode with v4_wire unset.
  Response response;
  response.type = MessageType::kStats;
  response.stats = GoldenStats();

  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(4);       // kStats
  WriteGoldenStatsBody(w);
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->stats.v4_wire);
  ExpectEqual(response, *decoded);
}

TEST(WireFuzzTest, GoldenV4StatsExtensionBytesAreStable) {
  Response response;
  response.type = MessageType::kStats;
  response.stats = GoldenStats();
  response.stats.v4_wire = true;
  response.stats.latency = {100, 12.5, 10.0, 20.0, 40.0, 80.0};
  response.stats.admitted_weight = 97;
  response.stats.rejected_weight = 3;
  response.stats.snapshot_loads = 1;
  response.stats.server.present = true;
  response.stats.server.connections_accepted = 5;
  response.stats.server.connections_active = 2;
  response.stats.server.bytes_in = 4096;
  response.stats.server.bytes_out = 8192;
  response.stats.server.frames_estimate = 100;
  ServiceStats::CacheRow cache;
  cache.name = "ceg";
  cache.entries = 10;
  cache.hits = 90;
  cache.misses = 10;
  response.stats.caches.push_back(std::move(cache));
  response.stats.estimators[0].latency = {100, 7.0, 6.0, 9.0, 11.0, 13.0};
  response.stats.estimators[0].qerror = {100, 1.5, 1.2, 2.0, 3.0, 4.0};

  util::serde::Writer ext;
  ext.WriteRaw(std::string_view("\xff" "CG4", 4));
  ext.WriteU8(1);  // ext version
  WriteGoldenSummary(ext, 100, 12.5, 10.0, 20.0, 40.0, 80.0);  // latency
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);                   // batch_lines
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);                   // fold_millis
  ext.WriteU64(97);  // admitted_weight
  ext.WriteU64(3);   // rejected_weight
  ext.WriteU64(1);   // snapshot_loads
  ext.WriteU8(1);    // server.present
  ext.WriteU64(5);   // connections_accepted
  ext.WriteU64(2);   // connections_active
  ext.WriteU64(0);   // shed_connection_cap
  ext.WriteU64(0);   // shed_pipeline_cap
  ext.WriteU64(0);   // reserved, always 0
  ext.WriteU64(0);   // backpressure_events
  ext.WriteU64(4096);  // bytes_in
  ext.WriteU64(8192);  // bytes_out
  ext.WriteU64(100);   // frames_estimate
  ext.WriteU64(0);     // frames_batch
  ext.WriteU64(0);     // frames_other
  ext.WriteU32(1);     // cache rows
  ext.WriteString("ceg");
  ext.WriteU64(10);  // entries
  ext.WriteU64(90);  // hits
  ext.WriteU64(10);  // misses
  ext.WriteU64(0);   // evictions
  ext.WriteU32(1);   // estimator summaries, index-aligned
  WriteGoldenSummary(ext, 100, 7.0, 6.0, 9.0, 11.0, 13.0);
  WriteGoldenSummary(ext, 100, 1.5, 1.2, 2.0, 3.0, 4.0);

  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(4);       // kStats
  WriteGoldenStatsBody(w);
  w.WriteString(ext.TakeBuffer());  // the extension trails as a string
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->stats.v4_wire);
  ExpectEqual(response, *decoded);
}

// ---- v5 request-id and scorecard extensions ----

TEST(WireFuzzTest, GoldenV5RequestIdRequestBytesAreStable) {
  Request request;
  request.type = MessageType::kEstimate;
  request.text = "(a)-[3]->(b)";
  request.dataset = "alpha";
  request.request_id = 0xDEADBEEFCAFEF00Dull;

  util::serde::Writer ext;
  ext.WriteRaw(std::string_view("\xff" "CGR", 4));
  ext.WriteU8(1);  // ext version
  ext.WriteU64(0xDEADBEEFCAFEF00Dull);

  util::serde::Writer w;
  w.WriteU8(1);  // kEstimate
  w.WriteString("(a)-[3]->(b)");
  w.WriteString("alpha");  // v2 dataset still precedes the extension
  w.WriteString(ext.TakeBuffer());
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeRequest(request), golden);
  auto decoded = DecodeRequest(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(request, *decoded);
}

TEST(WireFuzzTest, GoldenV5RequestIdEchoOnErrorResponseBytesAreStable) {
  // The id echo travels on error responses too — that is what makes it
  // useful for correlating a shed or failed request with the journal.
  Response response;
  response.type = MessageType::kEstimate;
  response.status = util::ResourceExhaustedError("saturated");
  response.request_id = 0x42;

  util::serde::Writer ext;
  ext.WriteRaw(std::string_view("\xff" "CGR", 4));
  ext.WriteU8(1);
  ext.WriteU64(0x42);

  util::serde::Writer w;
  w.WriteU8(static_cast<uint8_t>(util::StatusCode::kResourceExhausted));
  w.WriteString("saturated");
  w.WriteU8(1);  // kEstimate
  w.WriteString(ext.TakeBuffer());
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectEqual(response, *decoded);
}

TEST(WireFuzzTest, GoldenV5ScorecardExtensionBytesAreStable) {
  Response response;
  response.type = MessageType::kStats;
  response.stats = GoldenStats();
  response.stats.v4_wire = true;  // the v5 opt-in implies v4
  response.stats.scorecard_wire = true;
  response.stats.any_drift = true;
  response.stats.scorecard_window_seconds = 900;
  response.stats.latency_1m = {60, 11.0, 10.0, 18.0, 30.0, 55.0};
  response.stats.rate_1m = 2.5;
  obs::ScorecardClassReport row;
  row.key = "c1|3,5";
  row.display = "fork_2";
  row.hits = 40;
  row.under = 30;
  row.over = 8;
  row.qerror = {40, 4.0, 3.0, 8.0, 16.0, 20.0};
  row.baseline_median = 1.5;
  row.drifted = true;
  row.worst.qerror = 20.0;
  row.worst.line = "(a)-[3]->(b); (a)-[5]->(c)";
  row.worst.estimate = 2000;
  row.worst.truth = 100;
  row.worst.estimator = "cs";
  response.stats.scorecard.push_back(std::move(row));

  util::serde::Writer v4ext;
  v4ext.WriteRaw(std::string_view("\xff" "CG4", 4));
  v4ext.WriteU8(1);
  WriteGoldenSummary(v4ext, 0, 0, 0, 0, 0, 0);  // latency
  WriteGoldenSummary(v4ext, 0, 0, 0, 0, 0, 0);  // batch_lines
  WriteGoldenSummary(v4ext, 0, 0, 0, 0, 0, 0);  // fold_millis
  v4ext.WriteU64(0);  // admitted_weight
  v4ext.WriteU64(0);  // rejected_weight
  v4ext.WriteU64(0);  // snapshot_loads
  v4ext.WriteU8(0);   // server.present
  for (int i = 0; i < 11; ++i) v4ext.WriteU64(0);  // server counters
  v4ext.WriteU32(0);  // cache rows
  v4ext.WriteU32(1);  // estimator summaries
  WriteGoldenSummary(v4ext, 0, 0, 0, 0, 0, 0);
  WriteGoldenSummary(v4ext, 0, 0, 0, 0, 0, 0);

  util::serde::Writer v5ext;
  v5ext.WriteRaw(std::string_view("\xff" "CG5", 4));
  v5ext.WriteU8(1);    // ext version
  v5ext.WriteU8(1);    // any_drift
  v5ext.WriteU64(900);  // scorecard_window_seconds
  WriteGoldenSummary(v5ext, 60, 11.0, 10.0, 18.0, 30.0, 55.0);
  v5ext.WriteDouble(2.5);  // rate_1m
  v5ext.WriteU32(1);       // class count
  v5ext.WriteString("c1|3,5");
  v5ext.WriteString("fork_2");
  v5ext.WriteU64(40);  // hits
  v5ext.WriteU64(30);  // under
  v5ext.WriteU64(8);   // over
  WriteGoldenSummary(v5ext, 40, 4.0, 3.0, 8.0, 16.0, 20.0);
  v5ext.WriteDouble(1.5);  // baseline_median
  v5ext.WriteU8(1);        // drifted
  v5ext.WriteDouble(20.0);  // worst.qerror
  v5ext.WriteString("(a)-[3]->(b); (a)-[5]->(c)");
  v5ext.WriteDouble(2000);  // worst.estimate
  v5ext.WriteDouble(100);   // worst.truth
  v5ext.WriteString("cs");

  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(4);       // kStats
  WriteGoldenStatsBody(w);
  w.WriteString(v4ext.TakeBuffer());  // v5 opt-in sends both extensions
  w.WriteString(v5ext.TakeBuffer());
  const std::string golden = w.TakeBuffer();

  EXPECT_EQ(EncodeResponse(response), golden);
  auto decoded = DecodeResponse(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->stats.v4_wire);
  EXPECT_TRUE(decoded->stats.scorecard_wire);
  ExpectEqual(response, *decoded);
}

TEST(WireFuzzTest, UnknownTrailingExtensionsAreSkipped) {
  // A newer peer's extension (any 0xFF-led magic this build does not
  // know) must be skipped, not fail the frame — in both directions.
  util::serde::Writer unknown;
  unknown.WriteRaw(std::string_view("\xff" "CGZ", 4));
  unknown.WriteU64(123456789);

  util::serde::Writer wr;
  wr.WriteU8(5);  // kPing
  wr.WriteString("hello");
  wr.WriteString("alpha");
  wr.WriteString(unknown.buffer());
  auto request = DecodeRequest(wr.TakeBuffer());
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->dataset, "alpha");
  EXPECT_EQ(request->request_id, 0u);

  util::serde::Writer ws;
  ws.WriteU8(0);
  ws.WriteString("");
  ws.WriteU8(5);  // kPing
  ws.WriteString("pong");
  ws.WriteString(unknown.buffer());
  ws.WriteString("beta");  // dataset after the extension: order-free
  auto response = DecodeResponse(ws.TakeBuffer());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->text, "pong");
  EXPECT_EQ(response->dataset, "beta");
}

TEST(WireFuzzTest, RequestRejectsDuplicateDatasetFields) {
  util::serde::Writer w;
  w.WriteU8(5);  // kPing
  w.WriteString("hello");
  w.WriteString("alpha");
  w.WriteString("beta");
  auto decoded = DecodeRequest(w.TakeBuffer());
  EXPECT_FALSE(decoded.ok());
}

TEST(WireFuzzTest, StatsExtToleratesTrailingBytesInsideExtString) {
  // Bytes a future ext version appends inside the string must be ignored
  // by this decoder (forward compatibility), unlike trailing frame bytes.
  util::serde::Writer w;
  w.WriteU8(0);
  w.WriteString("");
  w.WriteU8(4);
  WriteGoldenStatsBody(w);
  util::serde::Writer ext;
  ext.WriteRaw(std::string_view("\xff" "CG4", 4));
  ext.WriteU8(2);  // a future version...
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  for (int i = 0; i < 3; ++i) ext.WriteU64(0);
  ext.WriteU8(0);  // server absent (counters still follow, fixed layout)
  for (int i = 0; i < 11; ++i) ext.WriteU64(0);
  ext.WriteU32(0);  // caches
  ext.WriteU32(1);  // estimator summaries
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  ext.WriteRaw("future-fields-go-here");  // ...with appended fields
  w.WriteString(ext.TakeBuffer());
  auto decoded = DecodeResponse(w.TakeBuffer());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->stats.v4_wire);
  EXPECT_EQ(decoded->stats.served, 100u);
}

TEST(WireFuzzTest, StatsExtRejectsEstimatorCountMismatch) {
  // The per-estimator summaries are index-aligned with the v3 list; an
  // ext claiming a different count is a malformed frame, not a v3 reply.
  Response response;
  response.type = MessageType::kStats;
  response.stats = GoldenStats();  // one estimator
  util::serde::Writer w;
  w.WriteU8(0);
  w.WriteString("");
  w.WriteU8(4);
  WriteGoldenStatsBody(w);
  util::serde::Writer ext;
  ext.WriteRaw(std::string_view("\xff" "CG4", 4));
  ext.WriteU8(1);
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  WriteGoldenSummary(ext, 0, 0, 0, 0, 0, 0);
  for (int i = 0; i < 3; ++i) ext.WriteU64(0);
  ext.WriteU8(0);
  for (int i = 0; i < 11; ++i) ext.WriteU64(0);
  ext.WriteU32(0);  // caches
  ext.WriteU32(3);  // three summaries against one estimator
  w.WriteString(ext.TakeBuffer());
  auto decoded = DecodeResponse(w.TakeBuffer());
  EXPECT_FALSE(decoded.ok());
}

TEST(WireFuzzTest, BatchResponseRejectsImplausibleItemCount) {
  // A batch response whose item count exceeds the remaining payload is
  // corruption; the decoder must reject it before reserving memory for it.
  util::serde::Writer w;
  w.WriteU8(0);       // status code OK
  w.WriteString("");  // status message
  w.WriteU8(7);       // kBatchEstimate
  w.WriteU32(0x7fffffff);
  auto decoded = DecodeResponse(w.TakeBuffer());
  EXPECT_FALSE(decoded.ok());
}

TEST(WireFuzzTest, BatchRequestRejectsImplausibleLineCount) {
  util::serde::Writer w;
  w.WriteU8(7);  // kBatchEstimate
  w.WriteU32(0x7fffffff);
  auto decoded = DecodeRequest(w.TakeBuffer());
  EXPECT_FALSE(decoded.ok());
}

}  // namespace
}  // namespace cegraph::service::wire
