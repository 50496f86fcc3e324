// Tests for the serving layer: request parsing, admission control, wire
// codecs and framing, the engine's offside state fork + replay-log
// truncation, the EstimationService's RCU hot-swap semantics (including
// the concurrent estimate-while-swap hammer), and the TCP loopback path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/delta_io.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "harness/service_driver.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "query/workload.h"
#include "service/admission.h"
#include "service/catalog.h"
#include "service/request.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/serde.h"

namespace cegraph::service {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("cegraph_service_test_" + stem + ".snap"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

graph::Graph SmallGraph(uint64_t seed = 7) {
  graph::GeneratorConfig config;
  config.num_vertices = 300;
  config.num_edges = 1800;
  config.num_labels = 6;
  config.seed = seed;
  auto g = graph::GenerateGraph(config);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::vector<query::WorkloadQuery> SmallWorkload(const graph::Graph& g,
                                                int instances = 3) {
  query::WorkloadOptions options;
  options.instances_per_template = instances;
  options.seed = 99;
  auto wl = query::GenerateWorkload(g,
                                    {{"path2", query::PathShape(2)},
                                     {"star2", query::StarShape(2)},
                                     {"tri", query::CycleShape(3)}},
                                    options);
  EXPECT_TRUE(wl.ok());
  return std::move(wl).value();
}

/// Deterministic serving suite (no sampling estimators) shared by the
/// consistency-sensitive tests.
ServiceOptions DeterministicOptions() {
  ServiceOptions options;
  options.estimators = {"max-hop-max", "all-hops-avg", "molp", "cbs"};
  options.compact_trigger_ops = 0;  // maintenance only on explicit flush
  return options;
}

/// Every estimate of `names` on `engine` for the workload's queries, in
/// (query, estimator) order; NaN for failures.
std::vector<double> AllEstimates(
    const engine::EstimationEngine& engine,
    const std::vector<std::string>& names,
    const std::vector<query::WorkloadQuery>& workload) {
  std::vector<double> out;
  auto estimators = engine.Estimators(names);
  EXPECT_TRUE(estimators.ok());
  for (const query::WorkloadQuery& wq : workload) {
    for (const CardinalityEstimator* estimator : *estimators) {
      auto est = estimator->Estimate(wq.query);
      out.push_back(est.ok() ? *est
                             : std::numeric_limits<double>::quiet_NaN());
    }
  }
  return out;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    EXPECT_EQ(a[i], b[i]) << "at " << i;
  }
}

// --- ParseRequestLine -------------------------------------------------------

TEST(RequestParseTest, BarePattern) {
  auto request = ParseRequestLine("  (a)-[3]->(b); (b)<-[5]-(c)  ");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_FALSE(request->truth.has_value());
  EXPECT_TRUE(request->template_name.empty());
  EXPECT_EQ(request->query.num_edges(), 2u);
}

TEST(RequestParseTest, WorkloadLineCarriesTruth) {
  auto request = ParseRequestLine("tri_7 1234.5 (a)-[0]->(b); (b)-[1]->(a)");
  ASSERT_TRUE(request.ok()) << request.status();
  ASSERT_TRUE(request->truth.has_value());
  EXPECT_EQ(*request->truth, 1234.5);
  EXPECT_EQ(request->template_name, "tri_7");
}

TEST(RequestParseTest, Rejections) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("   ").ok());
  EXPECT_FALSE(ParseRequestLine("# comment").ok());
  EXPECT_FALSE(ParseRequestLine("tri notanumber (a)-[0]->(b)").ok());
  EXPECT_FALSE(ParseRequestLine("tri 10").ok());  // missing pattern
  // Disconnected pattern.
  EXPECT_FALSE(ParseRequestLine("(a)-[0]->(b); (c)-[1]->(d)").ok());
  // Unparseable pattern.
  EXPECT_FALSE(ParseRequestLine("(a)-[x]->(b)").ok());
}

// --- AdmissionController ----------------------------------------------------

TEST(AdmissionTest, CapsInFlight) {
  AdmissionController admission(2);
  auto t1 = admission.TryAdmit();
  auto t2 = admission.TryAdmit();
  EXPECT_TRUE(t1);
  EXPECT_TRUE(t2);
  EXPECT_EQ(admission.in_flight(), 2);
  auto t3 = admission.TryAdmit();
  EXPECT_FALSE(t3);
  EXPECT_EQ(admission.rejected(), 1u);
  { AdmissionController::Ticket moved = std::move(t1); }
  EXPECT_EQ(admission.in_flight(), 1);
  auto t4 = admission.TryAdmit();
  EXPECT_TRUE(t4);
  EXPECT_EQ(admission.admitted(), 3u);
  EXPECT_EQ(admission.peak_in_flight(), 2);
}

TEST(AdmissionTest, UnboundedNeverRejects) {
  AdmissionController admission(0);
  std::vector<AdmissionController::Ticket> tickets;
  for (int i = 0; i < 100; ++i) tickets.push_back(admission.TryAdmit());
  EXPECT_EQ(admission.rejected(), 0u);
  EXPECT_EQ(admission.in_flight(), 100);
}

TEST(AdmissionTest, WeightedAdmissionOvershootsByAtMostOneRequest) {
  // Capacity counts weight units, not requests; a request is admitted
  // while in-flight is *below* capacity and then charges its full weight.
  AdmissionController admission(10);
  auto t1 = admission.TryAdmit(4);
  auto t2 = admission.TryAdmit(5);
  EXPECT_TRUE(t1);
  EXPECT_TRUE(t2);
  EXPECT_EQ(admission.in_flight(), 9);
  // 9 < 10: still below capacity, so even a weight-8 request gets in —
  // the transient overshoot that keeps heavyweight batches from starving.
  auto t3 = admission.TryAdmit(8);
  EXPECT_TRUE(t3);
  EXPECT_EQ(admission.in_flight(), 17);
  // 17 >= 10: saturated; even a weight-1 request bounces now.
  auto t4 = admission.TryAdmit(1);
  EXPECT_FALSE(t4);
  EXPECT_EQ(admission.rejected(), 1u);
  { AdmissionController::Ticket released = std::move(t3); }
  EXPECT_EQ(admission.in_flight(), 9);
  auto t5 = admission.TryAdmit(1);
  EXPECT_TRUE(t5);
  EXPECT_EQ(admission.peak_in_flight(), 17);
}

TEST(AdmissionTest, ZeroWeightClampsToOne) {
  // A degenerate weight (empty batch, weightless request) still occupies
  // one unit — otherwise a flood of them would be invisible to admission.
  AdmissionController admission(2);
  auto t1 = admission.TryAdmit(0);
  EXPECT_TRUE(t1);
  EXPECT_EQ(admission.in_flight(), 1);
  auto t2 = admission.TryAdmit(0);
  EXPECT_TRUE(t2);
  EXPECT_EQ(admission.in_flight(), 2);
  EXPECT_FALSE(admission.TryAdmit(0));
}

// --- Wire codecs ------------------------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  for (const auto type :
       {wire::MessageType::kEstimate, wire::MessageType::kApplyDeltas,
        wire::MessageType::kSwapSnapshot, wire::MessageType::kStats,
        wire::MessageType::kPing, wire::MessageType::kShutdown}) {
    wire::Request request{type, "some text\nwith lines"};
    auto decoded = wire::DecodeRequest(wire::EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->text, request.text);
  }
}

TEST(WireTest, RequestRejectsUnknownTypeAndTrailingBytes) {
  wire::Request request{wire::MessageType::kPing, "x"};
  std::string payload = wire::EncodeRequest(request);
  payload[0] = 99;
  auto unknown = wire::DecodeRequest(payload);
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kUnimplemented);

  payload[0] = static_cast<char>(wire::MessageType::kPing);
  payload += "junk";
  EXPECT_FALSE(wire::DecodeRequest(payload).ok());
}

TEST(WireTest, EstimateResponseRoundTrip) {
  wire::Response response;
  response.type = wire::MessageType::kEstimate;
  response.estimate.epoch = 7;
  response.estimate.state_version = 3;
  response.estimate.total_micros = 123.25;
  response.estimate.has_truth = true;
  response.estimate.truth = 42;
  response.estimate.results = {
      {"molp", true, 99.5, "", 10.5, 2.3690476190476193},
      {"sumrdf", false, 0, "INTERNAL: timeout", 1000.0, 0},
  };
  auto decoded = wire::DecodeResponse(wire::EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->estimate.epoch, 7u);
  EXPECT_EQ(decoded->estimate.state_version, 3u);
  ASSERT_EQ(decoded->estimate.results.size(), 2u);
  EXPECT_EQ(decoded->estimate.results[0].estimate, 99.5);
  EXPECT_EQ(decoded->estimate.results[0].qerror, 2.3690476190476193);
  EXPECT_FALSE(decoded->estimate.results[1].ok);
  EXPECT_EQ(decoded->estimate.results[1].error, "INTERNAL: timeout");
}

TEST(WireTest, ErrorResponseRoundTrip) {
  wire::Response response;
  response.type = wire::MessageType::kEstimate;
  response.status = util::ResourceExhaustedError("saturated");
  auto decoded = wire::DecodeResponse(wire::EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "saturated");
}

TEST(WireTest, StatsAndSwapRoundTrip) {
  wire::Response response;
  response.type = wire::MessageType::kStats;
  response.stats.served = 10;
  response.stats.epoch = 2;
  response.stats.mean_latency_micros = 55.5;
  response.stats.estimators = {{"molp", 10, 1, 12.5, 3.25}};
  auto decoded = wire::DecodeResponse(wire::EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->stats.served, 10u);
  ASSERT_EQ(decoded->stats.estimators.size(), 1u);
  EXPECT_EQ(decoded->stats.estimators[0].mean_qerror, 3.25);

  wire::Response swap;
  swap.type = wire::MessageType::kApplyDeltas;
  swap.swap.epoch = 4;
  swap.swap.applied_ops = 100;
  swap.swap.maintenance.inserted_edges = 60;
  auto swap_decoded = wire::DecodeResponse(wire::EncodeResponse(swap));
  ASSERT_TRUE(swap_decoded.ok()) << swap_decoded.status();
  EXPECT_EQ(swap_decoded->swap.epoch, 4u);
  EXPECT_EQ(swap_decoded->swap.applied_ops, 100u);
  EXPECT_EQ(swap_decoded->swap.maintenance.inserted_edges, 60u);
}

TEST(WireTest, BatchRequestAndResponseRoundTrip) {
  // v3 request: N lines plus the v2 trailing dataset.
  wire::Request request;
  request.type = wire::MessageType::kBatchEstimate;
  request.lines = {"(a)-[0]->(b)", "t 42 (a)-[1]->(b)", "garbage"};
  request.dataset = "alpha";
  auto decoded = wire::DecodeRequest(wire::EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, wire::MessageType::kBatchEstimate);
  EXPECT_EQ(decoded->lines, request.lines);
  EXPECT_EQ(decoded->dataset, "alpha");

  // v3 response: per-item status — an error item travels without a body,
  // an OK item carries a full estimate.
  wire::Response response;
  response.type = wire::MessageType::kBatchEstimate;
  response.batch.resize(2);
  response.batch[0].estimate.epoch = 3;
  response.batch[0].estimate.state_version = 2;
  response.batch[0].estimate.results = {
      {"molp", true, 99.5, "", 10.5, 1.25}};
  response.batch[1].status = util::InvalidArgumentError("bad line");
  auto batch_decoded = wire::DecodeResponse(wire::EncodeResponse(response));
  ASSERT_TRUE(batch_decoded.ok()) << batch_decoded.status();
  ASSERT_EQ(batch_decoded->batch.size(), 2u);
  EXPECT_TRUE(batch_decoded->batch[0].status.ok());
  EXPECT_EQ(batch_decoded->batch[0].estimate.epoch, 3u);
  ASSERT_EQ(batch_decoded->batch[0].estimate.results.size(), 1u);
  EXPECT_EQ(batch_decoded->batch[0].estimate.results[0].estimate, 99.5);
  EXPECT_EQ(batch_decoded->batch[1].status.code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(batch_decoded->batch[1].status.message(), "bad line");
}

TEST(WireTest, RejectsImplausibleResultCount) {
  // A well-framed estimate response whose result-count field claims 2^32-1
  // entries: must come back as a parse error, not a huge allocation.
  util::serde::Writer w;
  w.WriteU8(0);                // code OK
  w.WriteString("");           // error
  w.WriteU8(static_cast<uint8_t>(wire::MessageType::kEstimate));
  w.WriteU64(1);               // epoch
  w.WriteU64(0);               // state_version
  w.WriteDouble(0);            // total_micros
  w.WriteU8(0);                // has_truth
  w.WriteDouble(0);            // truth
  w.WriteU32(0xFFFFFFFFu);     // result count
  auto decoded = wire::DecodeResponse(w.buffer());
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
}

// --- ForkWithDeltas ---------------------------------------------------------

TEST(ForkTest, ForkMatchesInPlaceApplyAndLeavesSourceUntouched) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  const std::vector<std::string> names = {"max-hop-max", "all-hops-avg",
                                          "molp", "cbs", "cs"};
  const auto batch = dynamic::RandomEdgeBatch(g, 60, 11);

  engine::EstimationEngine source(g);
  source.context().Prewarm(workload);
  const auto pre_fork_estimates = AllEstimates(source, names, workload);

  dynamic::MaintenanceReport fork_report;
  auto fork = source.context().ForkWithDeltas(batch, &fork_report);
  ASSERT_TRUE(fork.ok()) << fork.status();
  EXPECT_EQ((*fork)->epoch(), 1u);
  EXPECT_GT(fork_report.inserted_edges, 0u);

  // The source is untouched: epoch 0, identical estimates.
  EXPECT_EQ(source.context().epoch(), 0u);
  ExpectBitIdentical(AllEstimates(source, names, workload),
                     pre_fork_estimates);

  // The fork is bit-identical to the proven in-place path.
  engine::EstimationEngine in_place(g);
  in_place.context().Prewarm(workload);
  ASSERT_TRUE(in_place.ApplyDeltas(batch).ok());
  engine::EstimationEngine forked(std::move(*fork));
  EXPECT_EQ(forked.context().graph().fingerprint(),
            in_place.context().graph().fingerprint());
  ExpectBitIdentical(AllEstimates(forked, names, workload),
                     AllEstimates(in_place, names, workload));
  EXPECT_EQ(forked.context().dynamic_fingerprint().delta_hash,
            in_place.context().dynamic_fingerprint().delta_hash);
}

TEST(ForkTest, EmptyBatchSharesGraphAndAdvancesEpoch) {
  const graph::Graph g = SmallGraph();
  engine::EstimationContext context(g);
  (void)context.markov();
  // All no-ops: delete a missing edge, insert an existing one.
  std::vector<dynamic::EdgeDelta> batch = {
      {g.edges()[0], dynamic::DeltaOp::kInsert}};
  auto fork = context.ForkWithDeltas(batch);
  ASSERT_TRUE(fork.ok()) << fork.status();
  EXPECT_EQ((*fork)->epoch(), 1u);
  EXPECT_EQ(&(*fork)->graph(), &context.graph());
  EXPECT_EQ((*fork)->dynamic_fingerprint().delta_hash,
            context.dynamic_fingerprint().delta_hash);
}

TEST(ForkTest, CegCacheCarriesUnaffectedBuilds) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  engine::EstimationEngine source(g);
  source.context().Prewarm(workload);
  (void)AllEstimates(source, {"max-hop-max"}, workload);
  ASSERT_GT(source.ceg_cache().size(), 0u);

  // Touch only label 0.
  std::vector<dynamic::EdgeDelta> batch;
  for (const graph::Edge& e : g.RelationEdges(0)) {
    batch.push_back({e, dynamic::DeltaOp::kDelete});
    if (batch.size() == 3) break;
  }
  auto fork = source.context().ForkWithDeltas(batch);
  ASSERT_TRUE(fork.ok()) << fork.status();
  // Builds over untouched labels were carried by reference.
  EXPECT_GT((*fork)->ceg_cache().size(), 0u);
  EXPECT_LT((*fork)->ceg_cache().size(), source.ceg_cache().size());
}

// --- TrimReplayLog ----------------------------------------------------------

TEST(TrimTest, TrimBoundsLogAndLimitsStaleReplay) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile snap1("trim_epoch1"), snap2("trim_epoch2");

  engine::EstimationContext context(g);
  context.Prewarm(workload);
  ASSERT_TRUE(context.ApplyDeltas(dynamic::RandomEdgeBatch(g, 20, 1)).ok());
  ASSERT_TRUE(context.SaveSnapshot(snap1.path()).ok());  // epoch 1
  ASSERT_TRUE(
      context.ApplyDeltas(dynamic::RandomEdgeBatch(context.graph(), 20, 2))
          .ok());
  ASSERT_TRUE(context.SaveSnapshot(snap2.path()).ok());  // epoch 2
  ASSERT_TRUE(
      context.ApplyDeltas(dynamic::RandomEdgeBatch(context.graph(), 20, 3))
          .ok());
  ASSERT_EQ(context.epoch(), 3u);
  const size_t full_log = context.delta_log().size();

  // Trimming below the current base is a no-op; trimming to epoch 2 drops
  // the epochs 0->2 prefix.
  EXPECT_EQ(context.TrimReplayLog(0), 0u);
  const size_t trimmed = context.TrimReplayLog(2);
  EXPECT_GT(trimmed, 0u);
  EXPECT_EQ(context.min_replayable_epoch(), 2u);
  EXPECT_EQ(context.delta_log().size(), full_log - trimmed);
  EXPECT_EQ(context.TrimReplayLog(2), 0u);  // idempotent

  // The epoch-2 snapshot is still inside the window: stale but usable.
  engine::EstimationContext::SnapshotLoadReport report;
  auto ok_load = context.LoadSnapshot(snap2.path(), &report);
  ASSERT_TRUE(ok_load.ok()) << ok_load;
  EXPECT_TRUE(report.stale);
  EXPECT_EQ(report.snapshot_epoch, 2u);

  // The epoch-1 snapshot's replay suffix is gone: rejected, not wrongly
  // replayed.
  auto stale_load = context.LoadSnapshot(snap1.path());
  EXPECT_FALSE(stale_load.ok());
  EXPECT_EQ(stale_load.code(), util::StatusCode::kFailedPrecondition);

  // A snapshot saved after trimming carries no embedded delta log (a
  // suffix could not reconstruct the state from the base graph).
  TempFile snap3("trim_post");
  ASSERT_TRUE(context.SaveSnapshot(snap3.path()).ok());
  auto log = engine::ReadSnapshotDeltaLog(snap3.path());
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_TRUE(log->empty());
}

// --- EstimationService ------------------------------------------------------

TEST(ServiceTest, EstimatesMatchDirectEngine) {
  const graph::Graph g = SmallGraph();
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  engine::EstimationEngine direct(g);
  const std::string pattern = "(a)-[0]->(b); (b)-[1]->(c)";
  auto response = (*service)->EstimateLine(pattern);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->epoch, 0u);
  EXPECT_EQ(response->state_version, 0u);
  ASSERT_EQ(response->results.size(), 4u);

  auto q = query::ParseQuery(pattern);
  ASSERT_TRUE(q.ok());
  for (const EstimatorResult& result : response->results) {
    auto estimator = direct.Estimator(result.name);
    ASSERT_TRUE(estimator.ok());
    auto expected = (*estimator)->Estimate(*q);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.estimate, *expected) << result.name;
  }
}

TEST(ServiceTest, RejectsOutOfRangeLabelsAndBadLines) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  auto bad_label = (*service)->EstimateLine("(a)-[99]->(b)");
  EXPECT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE((*service)->EstimateLine("garbage").ok());
  EXPECT_EQ((*service)->Stats().request_errors, 2u);
}

TEST(ServiceTest, TruthLineYieldsQError) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  auto response = (*service)->EstimateLine("t 100 (a)-[0]->(b)");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->has_truth);
  for (const EstimatorResult& result : response->results) {
    if (result.ok) EXPECT_GE(result.qerror, 1.0);
  }
  const ServiceStats stats = (*service)->Stats();
  ASSERT_FALSE(stats.estimators.empty());
  EXPECT_GE(stats.estimators[0].mean_qerror, 1.0);
}

TEST(ServiceTest, SubmitRejectsInvalidDeltasAtTheDoor) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  // Out-of-range endpoint: rejected whole, nothing queued — one
  // submitter's bad feed cannot sink another's folded-in valid batch.
  std::vector<dynamic::EdgeDelta> bad = {
      {{999999, 0, 0}, dynamic::DeltaOp::kInsert}};
  auto submitted = (*service)->SubmitDeltas(bad);
  EXPECT_EQ(submitted.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->Stats().pending_delta_ops, 0u);
  auto flushed = (*service)->FlushDeltas();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->epoch, 0u);  // nothing to fold
}

TEST(ServiceTest, DeltaFlushPublishesNewEpochOldStateStillServes) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  auto service =
      EstimationService::Create(SmallGraph(), DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  const auto old_state = (*service)->AcquireState();
  const std::string pattern = "(a)-[0]->(b); (b)-[1]->(c)";
  auto before = (*service)->EstimateLine(pattern);
  ASSERT_TRUE(before.ok());

  const auto batch = dynamic::RandomEdgeBatch(g, 80, 21);
  (*service)->SubmitDeltas(batch);
  EXPECT_GT((*service)->Stats().pending_delta_ops, 0u);
  auto swap = (*service)->FlushDeltas();
  ASSERT_TRUE(swap.ok()) << swap.status();
  EXPECT_EQ(swap->epoch, 1u);
  EXPECT_EQ(swap->version, 1u);
  EXPECT_EQ((*service)->Stats().pending_delta_ops, 0u);

  // The new state matches a cold engine over the compacted graph.
  auto after = (*service)->EstimateLine(pattern);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, 1u);
  dynamic::DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());
  engine::EstimationEngine cold(*compacted);
  auto q = query::ParseQuery(pattern);
  ASSERT_TRUE(q.ok());
  for (const EstimatorResult& result : after->results) {
    auto estimator = cold.Estimator(result.name);
    ASSERT_TRUE(estimator.ok());
    auto expected = (*estimator)->Estimate(*q);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(result.estimate, *expected) << result.name;
  }

  // RCU property: the pre-swap state, still held, answers exactly as
  // before the swap.
  ASSERT_EQ(old_state->suite.size(), before->results.size());
  for (size_t i = 0; i < old_state->suite.size(); ++i) {
    auto estimate = old_state->suite[i]->Estimate(*q);
    ASSERT_TRUE(estimate.ok());
    EXPECT_EQ(*estimate, before->results[i].estimate);
  }
}

TEST(ServiceTest, HotSwapSnapshotRebasesAndTrims) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile snap("hot_swap");

  // An offline artifact two epochs ahead of the base graph.
  engine::EstimationContext producer(g);
  producer.Prewarm(workload);
  ASSERT_TRUE(producer.ApplyDeltas(dynamic::RandomEdgeBatch(g, 30, 5)).ok());
  ASSERT_TRUE(
      producer.ApplyDeltas(dynamic::RandomEdgeBatch(producer.graph(), 30, 6))
          .ok());
  ASSERT_TRUE(producer.SaveSnapshot(snap.path()).ok());

  ServiceOptions options = DeterministicOptions();
  options.replay_keep_epochs = 0;  // trim everything after each swap
  auto service = EstimationService::Create(SmallGraph(), options);
  ASSERT_TRUE(service.ok()) << service.status();

  auto swap = (*service)->HotSwapSnapshot(snap.path());
  ASSERT_TRUE(swap.ok()) << swap.status();
  // The embedded 60-op log replays as one batch, so the rebased context
  // sits at epoch 1 of its own lineage — with the producer's exact graph.
  EXPECT_EQ(swap->epoch, 1u);
  EXPECT_EQ(swap->version, 1u);
  EXPECT_EQ(swap->snapshot_replayed_deltas, 60u);
  EXPECT_GT(swap->trimmed_log_ops, 0u);

  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.replay_log_ops, 0u);
  EXPECT_EQ(stats.min_replayable_epoch, 1u);

  // Estimates now come from the snapshot's graph state.
  const std::string pattern = "(a)-[0]->(b); (b)-[1]->(c)";
  auto response = (*service)->EstimateLine(pattern);
  ASSERT_TRUE(response.ok());
  engine::EstimationEngine expected_engine(producer.graph());
  auto q = query::ParseQuery(pattern);
  ASSERT_TRUE(q.ok());
  for (const EstimatorResult& result : response->results) {
    auto estimator = expected_engine.Estimator(result.name);
    ASSERT_TRUE(estimator.ok());
    auto expected = (*estimator)->Estimate(*q);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(result.estimate, *expected) << result.name;
  }
}

TEST(ServiceTest, BackgroundMaintainerCompactsOnVolume) {
  const graph::Graph g = SmallGraph();
  ServiceOptions options = DeterministicOptions();
  options.compact_trigger_ops = 50;
  auto service = EstimationService::Create(SmallGraph(), options);
  ASSERT_TRUE(service.ok()) << service.status();

  (*service)->SubmitDeltas(dynamic::RandomEdgeBatch(g, 60, 31));
  for (int i = 0; i < 200 && (*service)->epoch() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*service)->epoch(), 1u);
  EXPECT_EQ((*service)->Stats().pending_delta_ops, 0u);
}

// The satellite: hammer the service from N threads through repeated delta
// swaps and one snapshot hot-swap; every response must be internally
// consistent with exactly one epoch and no request may fail.
TEST(ServiceTest, ConcurrentEstimateWhileSwapping) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g, 2);
  TempFile snap("hammer");

  ServiceOptions options = DeterministicOptions();
  options.prewarm_workload = workload;
  auto service = EstimationService::Create(SmallGraph(), options);
  ASSERT_TRUE(service.ok()) << service.status();

  // Epoch-0 snapshot of the service's own lineage: the final hot-swap
  // rebases back to a state whose answers must equal the original epoch 0.
  ASSERT_TRUE(
      (*service)->AcquireState()->engine->context().SaveSnapshot(snap.path())
          .ok());

  std::atomic<bool> failed{false};
  std::thread maintainer([&] {
    uint64_t seed = 1000;
    for (int swap = 0; swap < 3; ++swap) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const auto state = (*service)->AcquireState();
      (*service)->SubmitDeltas(dynamic::RandomEdgeBatch(
          state->engine->context().graph(), 40, seed++));
      auto flushed = (*service)->FlushDeltas();
      if (!flushed.ok()) failed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto swapped = (*service)->HotSwapSnapshot(snap.path());
    if (!swapped.ok()) failed = true;
  });

  harness::ServiceDriverOptions driver;
  driver.num_threads = 4;
  driver.duration_seconds = 1.2;
  driver.check_consistency = true;
  const harness::ServiceRunResult result =
      harness::DriveServiceWorkload(**service, workload, driver);
  maintainer.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(result.requests, 0u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.inconsistent_responses, 0u);
  EXPECT_EQ(result.version_regressions, 0u);
  // The hammer saw more than one epoch (the swaps really happened under
  // load) unless the machine was too slow to overlap; epochs observed must
  // be among those the maintainer created: 0..3 (0 repeats post-rebase).
  for (const auto& [epoch, count] : result.responses_per_epoch) {
    EXPECT_LE(epoch, 3u);
  }
  EXPECT_EQ((*service)->Stats().swaps, 4u);
}

// --- TCP loopback -----------------------------------------------------------

TEST(TcpServerTest, LoopbackEstimateStatsShutdown) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions server_options;
  server_options.workers = 2;
  TcpServer server(**service, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  auto ping = wire::RoundTrip(
      *fd, {wire::MessageType::kPing, "hello"});
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->text, "hello");

  auto estimate = wire::RoundTrip(
      *fd, {wire::MessageType::kEstimate, "(a)-[0]->(b)"});
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  ASSERT_TRUE(estimate->status.ok()) << estimate->status;
  EXPECT_EQ(estimate->estimate.results.size(), 4u);

  auto bad = wire::RoundTrip(
      *fd, {wire::MessageType::kEstimate, "(a)-[99]->(b)"});
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->status.code(), util::StatusCode::kInvalidArgument);

  auto stats = wire::RoundTrip(*fd, {wire::MessageType::kStats, ""});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->stats.served, 1u);
  ::close(*fd);

  // A second connection asks for shutdown; WaitUntilShutdown observes it.
  auto fd2 = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd2.ok()) << fd2.status();
  auto shutdown = wire::RoundTrip(*fd2, {wire::MessageType::kShutdown, ""});
  ASSERT_TRUE(shutdown.ok()) << shutdown.status();
  ::close(*fd2);
  EXPECT_TRUE(server.WaitUntilShutdown());
  server.Stop();
  EXPECT_GE(server.requests_handled(), 5u);
}

// --- Dataset catalog & multi-dataset routing --------------------------------

TEST(CatalogTest, ResolveRoutesDefaultAndRejectsUnknown) {
  std::vector<DatasetSpec> specs;
  specs.push_back({"alpha",
                   std::make_shared<const graph::Graph>(SmallGraph(1)),
                   DeterministicOptions()});
  specs.push_back({"beta",
                   std::make_shared<const graph::Graph>(SmallGraph(2)),
                   DeterministicOptions()});
  auto catalog = DatasetCatalog::Create(std::move(specs), "beta");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  EXPECT_EQ((*catalog)->size(), 2u);
  EXPECT_EQ((*catalog)->default_dataset(), "beta");
  EXPECT_EQ((*catalog)->names(),
            (std::vector<std::string>{"alpha", "beta"}));

  auto alpha = (*catalog)->Resolve("alpha");
  ASSERT_TRUE(alpha.ok());
  auto implicit = (*catalog)->Resolve("");
  ASSERT_TRUE(implicit.ok());
  EXPECT_EQ(*implicit, *(*catalog)->Resolve("beta"));
  EXPECT_NE(*implicit, *alpha);

  auto unknown = (*catalog)->Resolve("gamma");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("serving: alpha, beta"),
            std::string::npos)
      << unknown.status();
}

TEST(CatalogTest, RejectsDuplicateEmptyAndMalformedNames) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok());
  DatasetCatalog catalog;
  ASSERT_TRUE(catalog.AddBorrowed("alpha", service->get()).ok());
  EXPECT_FALSE(catalog.AddBorrowed("alpha", service->get()).ok());
  EXPECT_FALSE(catalog.AddBorrowed("", service->get()).ok());
  EXPECT_FALSE(catalog.AddBorrowed("has space", service->get()).ok());
  EXPECT_FALSE(catalog.AddBorrowed("has=eq", service->get()).ok());
  EXPECT_FALSE(catalog.SetDefault("nope").ok());
  EXPECT_EQ(catalog.default_dataset(), "alpha");
}

TEST(WireTest, DatasetFieldRoundTripsAndStaysV1Compatible) {
  wire::Request request{wire::MessageType::kEstimate, "(a)-[0]->(b)",
                        "alpha"};
  auto decoded = wire::DecodeRequest(wire::EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->dataset, "alpha");

  // Empty dataset encodes byte-identically to a v1 frame.
  wire::Request v1{wire::MessageType::kEstimate, "(a)-[0]->(b)", ""};
  util::serde::Writer w;
  w.WriteU8(static_cast<uint8_t>(v1.type));
  w.WriteString(v1.text);
  EXPECT_EQ(wire::EncodeRequest(v1), w.TakeBuffer());

  // Response echo round-trips on both the OK and the error path.
  wire::Response ok_response;
  ok_response.type = wire::MessageType::kPing;
  ok_response.text = "pong";
  ok_response.dataset = "alpha";
  auto ok_decoded = wire::DecodeResponse(wire::EncodeResponse(ok_response));
  ASSERT_TRUE(ok_decoded.ok()) << ok_decoded.status();
  EXPECT_EQ(ok_decoded->dataset, "alpha");

  wire::Response error_response;
  error_response.type = wire::MessageType::kEstimate;
  error_response.status = util::NotFoundError("unknown dataset 'x'");
  error_response.dataset = "x";
  auto error_decoded =
      wire::DecodeResponse(wire::EncodeResponse(error_response));
  ASSERT_TRUE(error_decoded.ok()) << error_decoded.status();
  EXPECT_EQ(error_decoded->status.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(error_decoded->dataset, "x");
}

TEST(TcpServerTest, MultiDatasetRoutingOverLoopback) {
  // Two different graphs under one server: routed estimates must come
  // from the right dataset (and differ), v1 frames go to the default, and
  // an unknown dataset is a clean error frame, not a dropped connection.
  std::vector<DatasetSpec> specs;
  specs.push_back({"alpha",
                   std::make_shared<const graph::Graph>(SmallGraph(1)),
                   DeterministicOptions()});
  specs.push_back({"beta",
                   std::make_shared<const graph::Graph>(SmallGraph(2)),
                   DeterministicOptions()});
  auto catalog = DatasetCatalog::Create(std::move(specs));
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  ServerOptions server_options;
  server_options.workers = 2;
  TcpServer server(**catalog, server_options);
  ASSERT_TRUE(server.Start().ok());
  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  const std::string pattern = "(a)-[0]->(b); (b)-[1]->(c)";
  auto on_alpha = wire::RoundTrip(
      *fd, {wire::MessageType::kEstimate, pattern, "alpha"});
  ASSERT_TRUE(on_alpha.ok()) << on_alpha.status();
  ASSERT_TRUE(on_alpha->status.ok()) << on_alpha->status;
  EXPECT_EQ(on_alpha->dataset, "alpha");
  auto on_beta = wire::RoundTrip(
      *fd, {wire::MessageType::kEstimate, pattern, "beta"});
  ASSERT_TRUE(on_beta.ok()) << on_beta.status();
  ASSERT_TRUE(on_beta->status.ok()) << on_beta->status;
  EXPECT_EQ(on_beta->dataset, "beta");
  ASSERT_EQ(on_alpha->estimate.results.size(),
            on_beta->estimate.results.size());
  bool any_differs = false;
  for (size_t i = 0; i < on_alpha->estimate.results.size(); ++i) {
    any_differs |= on_alpha->estimate.results[i].estimate !=
                   on_beta->estimate.results[i].estimate;
  }
  EXPECT_TRUE(any_differs) << "different graphs answered identically";

  // v1 frame (no dataset): routed to the default, no echo.
  auto v1 = wire::RoundTrip(*fd, {wire::MessageType::kEstimate, pattern});
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(v1->status.ok()) << v1->status;
  EXPECT_TRUE(v1->dataset.empty());
  for (size_t i = 0; i < v1->estimate.results.size(); ++i) {
    EXPECT_EQ(v1->estimate.results[i].estimate,
              on_alpha->estimate.results[i].estimate);
  }

  auto unknown = wire::RoundTrip(
      *fd, {wire::MessageType::kEstimate, pattern, "gamma"});
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(unknown->status.code(), util::StatusCode::kNotFound);
  EXPECT_NE(unknown->status.message().find("unknown dataset 'gamma'"),
            std::string::npos);
  // The connection survives the error frame.
  auto ping = wire::RoundTrip(*fd, {wire::MessageType::kPing, "still-up"});
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->text, "still-up");

  // A dataset-qualified ping validates the routing name without touching
  // a service; an unknown one is NotFound.
  auto routed_ping = wire::RoundTrip(
      *fd, {wire::MessageType::kPing, "probe", "beta"});
  ASSERT_TRUE(routed_ping.ok()) << routed_ping.status();
  ASSERT_TRUE(routed_ping->status.ok()) << routed_ping->status;
  EXPECT_EQ(routed_ping->text, "probe");
  EXPECT_EQ(routed_ping->dataset, "beta");
  auto bad_ping = wire::RoundTrip(
      *fd, {wire::MessageType::kPing, "", "gamma"});
  ASSERT_TRUE(bad_ping.ok()) << bad_ping.status();
  EXPECT_EQ(bad_ping->status.code(), util::StatusCode::kNotFound);

  // Shutdown is server-wide by definition: a dataset-qualified one is
  // rejected instead of silently draining every tenant.
  auto scoped_shutdown = wire::RoundTrip(
      *fd, {wire::MessageType::kShutdown, "", "beta"});
  ASSERT_TRUE(scoped_shutdown.ok()) << scoped_shutdown.status();
  EXPECT_EQ(scoped_shutdown->status.code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.shutdown_requested());

  // Per-dataset stats: each service only counted its own requests.
  auto alpha_stats = wire::RoundTrip(
      *fd, {wire::MessageType::kStats, "", "alpha"});
  ASSERT_TRUE(alpha_stats.ok() && alpha_stats->status.ok());
  auto beta_stats = wire::RoundTrip(
      *fd, {wire::MessageType::kStats, "", "beta"});
  ASSERT_TRUE(beta_stats.ok() && beta_stats->status.ok());
  EXPECT_EQ(alpha_stats->stats.served, 2u);  // routed + v1-default
  EXPECT_EQ(beta_stats->stats.served, 1u);

  ::close(*fd);
  server.Stop();
}

TEST(ServiceTest, CrossDatasetIsolationUnderChurn) {
  // Dataset A takes concurrent delta ingestion and a snapshot hot-swap;
  // dataset B must not move at all: same estimates bit-for-bit, epoch 0,
  // zero swaps, zero per-dataset oracle inconsistencies, and request
  // accounting that counts only its own traffic.
  const graph::Graph graph_a = SmallGraph(1);
  const graph::Graph graph_b = SmallGraph(2);
  const auto workload_a = SmallWorkload(graph_a, 2);
  const auto workload_b = SmallWorkload(graph_b, 2);
  TempFile snap("isolation");

  std::vector<DatasetSpec> specs;
  specs.push_back({"a", std::make_shared<const graph::Graph>(SmallGraph(1)),
                   DeterministicOptions()});
  specs.push_back({"b", std::make_shared<const graph::Graph>(SmallGraph(2)),
                   DeterministicOptions()});
  auto catalog = DatasetCatalog::Create(std::move(specs));
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  EstimationService& service_a = **(*catalog)->Resolve("a");
  const EstimationService& service_b = **(*catalog)->Resolve("b");

  ASSERT_TRUE(service_a.AcquireState()
                  ->engine->context()
                  .SaveSnapshot(snap.path())
                  .ok());

  // B's pre-churn answers, via the service path.
  std::vector<double> before;
  for (const query::WorkloadQuery& wq : workload_b) {
    auto response = service_b.EstimateLine(query::FormatQuery(wq.query));
    ASSERT_TRUE(response.ok()) << response.status();
    for (const EstimatorResult& r : response->results) {
      before.push_back(r.ok ? r.estimate
                            : std::numeric_limits<double>::quiet_NaN());
    }
  }

  // Churn A while both datasets serve under the per-dataset oracle.
  std::atomic<bool> churn_failed{false};
  std::thread churner([&] {
    uint64_t seed = 500;
    for (int swap = 0; swap < 3; ++swap) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const auto state = service_a.AcquireState();
      (void)service_a.SubmitDeltas(dynamic::RandomEdgeBatch(
          state->engine->context().graph(), 40, seed++));
      if (!service_a.FlushDeltas().ok()) churn_failed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!service_a.HotSwapSnapshot(snap.path()).ok()) churn_failed = true;
  });

  harness::ServiceDriverOptions driver;
  driver.num_threads = 3;
  driver.duration_seconds = 0.9;
  driver.check_consistency = true;
  auto results = harness::DriveCatalogWorkload(
      **catalog,
      {{"a", workload_a}, {"b", workload_b}}, driver);
  churner.join();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(churn_failed.load());

  const harness::ServiceRunResult& result_a = results->at("a");
  const harness::ServiceRunResult& result_b = results->at("b");
  EXPECT_GT(result_a.requests, 0u);
  EXPECT_GT(result_b.requests, 0u);
  EXPECT_EQ(result_a.errors, 0u);
  EXPECT_EQ(result_b.errors, 0u);
  EXPECT_EQ(result_a.inconsistent_responses, 0u);
  EXPECT_EQ(result_b.inconsistent_responses, 0u);

  // A actually churned; B's epoch line never moved.
  const ServiceStats stats_a = service_a.Stats();
  const ServiceStats stats_b = service_b.Stats();
  EXPECT_EQ(stats_a.swaps, 4u);
  EXPECT_EQ(stats_b.swaps, 0u);
  EXPECT_EQ(stats_b.epoch, 0u);
  EXPECT_EQ(stats_b.version, 0u);
  // A's hammer may have seen several epochs (timing-dependent); B saw
  // exactly one, and it is epoch 0.
  ASSERT_EQ(result_b.responses_per_epoch.size(), 1u);
  EXPECT_EQ(result_b.responses_per_epoch.begin()->first, 0u);

  // B's accounting saw exactly its own traffic: the driver's B-requests
  // plus the pre/post probes below.
  EXPECT_EQ(stats_b.served, result_b.requests + workload_b.size());
  EXPECT_EQ(stats_b.pending_delta_ops, 0u);
  EXPECT_EQ(stats_b.replay_log_ops, 0u);

  // And B answers bit-identically to before the churn.
  std::vector<double> after;
  for (const query::WorkloadQuery& wq : workload_b) {
    auto response = service_b.EstimateLine(query::FormatQuery(wq.query));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->epoch, 0u);
    for (const EstimatorResult& r : response->results) {
      after.push_back(r.ok ? r.estimate
                           : std::numeric_limits<double>::quiet_NaN());
    }
  }
  ExpectBitIdentical(before, after);
}

TEST(TcpServerTest, ApplyDeltasOverLoopback) {
  const graph::Graph g = SmallGraph();
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  TcpServer server(**service);
  ASSERT_TRUE(server.Start().ok());

  std::ostringstream feed;
  ASSERT_TRUE(dynamic::WriteDeltaText(dynamic::RandomEdgeBatch(g, 30, 77),
                                      feed)
                  .ok());
  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  auto swap = wire::RoundTrip(
      *fd, {wire::MessageType::kApplyDeltas, feed.str()});
  ASSERT_TRUE(swap.ok()) << swap.status();
  ASSERT_TRUE(swap->status.ok()) << swap->status;
  EXPECT_EQ(swap->swap.epoch, 1u);
  EXPECT_EQ(swap->swap.applied_ops, 30u);
  ::close(*fd);
  EXPECT_EQ((*service)->epoch(), 1u);
  server.Stop();
}

// --- Wire v3 batches & the event-loop dispatcher ----------------------------

// The v3 acceptance criterion, in-process half: a batch of N lines answers
// bit-identically to the same N lines served as individual calls — same
// estimates, same epoch, same estimator names — because the whole batch
// runs against one acquired serving state.
TEST(ServiceTest, BatchMatchesPerLineEstimates) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  const std::vector<std::string> lines = {
      "(a)-[0]->(b)",
      "(a)-[0]->(b); (b)-[1]->(c)",
      "t 100 (a)-[2]->(b)",
  };
  auto batch = (*service)->EstimateBatch(lines);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    const BatchEstimateItem& item = (*batch)[i];
    ASSERT_TRUE(item.status.ok()) << item.status;
    auto single = (*service)->EstimateLine(lines[i]);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ(item.estimate.epoch, single->epoch);
    EXPECT_EQ(item.estimate.state_version, single->state_version);
    EXPECT_EQ(item.estimate.has_truth, single->has_truth);
    ASSERT_EQ(item.estimate.results.size(), single->results.size());
    for (size_t j = 0; j < single->results.size(); ++j) {
      EXPECT_EQ(item.estimate.results[j].name, single->results[j].name);
      EXPECT_TRUE(item.estimate.results[j].ok);
      // Bit-identical, not approximately equal: deterministic estimators
      // on the same serving state admit nothing in between.
      EXPECT_EQ(item.estimate.results[j].estimate,
                single->results[j].estimate);
      EXPECT_EQ(item.estimate.results[j].qerror, single->results[j].qerror);
    }
  }
}

TEST(ServiceTest, BatchReportsPerLineErrorsWithoutSinkingNeighbors) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  auto batch = (*service)->EstimateBatch(
      {"(a)-[0]->(b)", "garbage", "(a)-[99]->(b)", "(a)-[1]->(b)"});
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), 4u);
  EXPECT_TRUE((*batch)[0].status.ok()) << (*batch)[0].status;
  EXPECT_EQ((*batch)[1].status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ((*batch)[2].status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE((*batch)[3].status.ok()) << (*batch)[3].status;
  // The two good lines still answered from one shared epoch.
  EXPECT_EQ((*batch)[0].estimate.epoch, (*batch)[3].estimate.epoch);
}

TEST(ServiceTest, EmptyBatchIsRejectedWholesale) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  auto batch = (*service)->EstimateBatch(std::vector<std::string>{});
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), util::StatusCode::kInvalidArgument);
}

// The acceptance criterion, wire half: a v3 batch frame of N lines returns
// results bit-identical to the same N lines sent as individual v1 frames.
TEST(TcpServerTest, BatchMatchesSingleFramesOverLoopback) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  TcpServer server(**service);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> lines = {
      "(a)-[0]->(b)",
      "(a)-[0]->(b); (b)-[1]->(c)",
      "garbage",
      "t 50 (a)-[2]->(b)",
  };
  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  wire::Request batch_request;
  batch_request.type = wire::MessageType::kBatchEstimate;
  batch_request.lines = lines;
  auto batch = wire::RoundTrip(*fd, batch_request);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_TRUE(batch->status.ok()) << batch->status;
  ASSERT_EQ(batch->batch.size(), lines.size());

  // Same connection, same lines, one v1 frame each.
  for (size_t i = 0; i < lines.size(); ++i) {
    auto single =
        wire::RoundTrip(*fd, {wire::MessageType::kEstimate, lines[i]});
    ASSERT_TRUE(single.ok()) << single.status();
    const BatchEstimateItem& item = batch->batch[i];
    EXPECT_EQ(item.status.code(), single->status.code()) << lines[i];
    if (!single->status.ok()) continue;
    ASSERT_TRUE(item.status.ok()) << item.status;
    EXPECT_EQ(item.estimate.epoch, single->estimate.epoch);
    EXPECT_EQ(item.estimate.has_truth, single->estimate.has_truth);
    ASSERT_EQ(item.estimate.results.size(), single->estimate.results.size());
    for (size_t j = 0; j < item.estimate.results.size(); ++j) {
      EXPECT_EQ(item.estimate.results[j].name,
                single->estimate.results[j].name);
      EXPECT_EQ(item.estimate.results[j].estimate,
                single->estimate.results[j].estimate);
      EXPECT_EQ(item.estimate.results[j].qerror,
                single->estimate.results[j].qerror);
    }
  }
  ::close(*fd);
  server.Stop();
}

// Pipelining: many frames written back-to-back on one connection come back
// as exactly one response per frame, in request order (the event loop
// serializes each connection's dispatch).
TEST(TcpServerTest, PipelinedFramesAnswerInOrder) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions server_options;
  server_options.workers = 2;
  TcpServer server(**service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    wire::Request ping{wire::MessageType::kPing, "p" + std::to_string(i)};
    ASSERT_TRUE(wire::WriteFrame(*fd, wire::EncodeRequest(ping)).ok());
  }
  for (int i = 0; i < kFrames; ++i) {
    auto payload = wire::ReadFrame(*fd, wire::kMaxFrameBytes);
    ASSERT_TRUE(payload.ok()) << payload.status() << " at frame " << i;
    auto response = wire::DecodeResponse(*payload);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->status.ok()) << response->status;
    EXPECT_EQ(response->text, "p" + std::to_string(i));
  }
  ::close(*fd);
  server.Stop();
  EXPECT_GE(server.requests_handled(), static_cast<uint64_t>(kFrames));
}

// Per-connection pipeline cap: one write() carrying far more frames than
// max_pipelined_requests gets the excess answered with in-order retryable
// RESOURCE_EXHAUSTED frames — the connection survives and every frame gets
// exactly one response.
TEST(TcpServerTest, PipelineCapRejectsExcessFramesInOrder) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions server_options;
  server_options.workers = 1;
  server_options.max_pipelined_requests = 2;
  TcpServer server(**service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  // All frames in ONE buffer and one write: they reach the parser in one
  // readiness callback, before any response drains the pipeline, so the
  // cap engages deterministically.
  constexpr int kFrames = 64;
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    wire::Request ping{wire::MessageType::kPing, "p" + std::to_string(i)};
    const std::string payload = wire::EncodeRequest(ping);
    const uint32_t length = static_cast<uint32_t>(payload.size());
    burst.push_back(static_cast<char>(length & 0xff));
    burst.push_back(static_cast<char>((length >> 8) & 0xff));
    burst.push_back(static_cast<char>((length >> 16) & 0xff));
    burst.push_back(static_cast<char>((length >> 24) & 0xff));
    burst += payload;
  }
  size_t written = 0;
  while (written < burst.size()) {
    const ssize_t rc =
        ::write(*fd, burst.data() + written, burst.size() - written);
    ASSERT_GT(rc, 0);
    written += static_cast<size_t>(rc);
  }

  int ok = 0;
  int rejected = 0;
  for (int i = 0; i < kFrames; ++i) {
    auto payload = wire::ReadFrame(*fd, wire::kMaxFrameBytes);
    ASSERT_TRUE(payload.ok()) << payload.status() << " at frame " << i;
    auto response = wire::DecodeResponse(*payload);
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->status.ok()) {
      // One response per frame, in request order: the i-th response
      // answers the i-th frame whether served or shed.
      EXPECT_EQ(response->text, "p" + std::to_string(i));
      ++ok;
    } else {
      EXPECT_EQ(response->status.code(),
                util::StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  // The cap admitted at least its depth and shed most of the burst; exact
  // counts depend on read coalescing, but the burst cannot all fit.
  EXPECT_GE(ok, 2);
  EXPECT_GE(rejected, kFrames / 2);
  EXPECT_GE(server.overload_rejections(),
            static_cast<uint64_t>(rejected));
  ::close(*fd);
  server.Stop();
}

// The headline property of the event loop: hundreds of concurrent
// connections are cheap (fds + buffers, not threads). 200 connections on a
// 2-thread worker pool all answer.
TEST(TcpServerTest, ManyIdleConnectionsAllServe) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions server_options;
  server_options.workers = 2;
  TcpServer server(**service, server_options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kConns = 200;
  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto fd = wire::DialTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok()) << fd.status() << " at connection " << i;
    fds.push_back(*fd);
  }
  // Every connection is live — including the earliest ones, which have
  // been sitting idle while the rest dialed.
  for (int i = 0; i < kConns; ++i) {
    auto ping = wire::RoundTrip(
        fds[static_cast<size_t>(i)],
        {wire::MessageType::kPing, "c" + std::to_string(i)});
    ASSERT_TRUE(ping.ok()) << ping.status() << " at connection " << i;
    EXPECT_EQ(ping->text, "c" + std::to_string(i));
  }
  for (int fd : fds) ::close(fd);
  server.Stop();
  EXPECT_GE(server.connections_accepted(), static_cast<uint64_t>(kConns));
}

// Connection cap: the accept path sheds connections over the limit with a
// retryable error frame instead of letting them starve silently.
TEST(TcpServerTest, ConnectionCapRejectsWithRetryableFrame) {
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions server_options;
  server_options.workers = 1;
  server_options.max_connections = 4;
  TcpServer server(**service, server_options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    auto fd = wire::DialTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok()) << fd.status();
    fds.push_back(*fd);
    // The ping proves the server registered this connection before the
    // next dial, so the fifth one deterministically finds a full house.
    auto ping = wire::RoundTrip(*fd, {wire::MessageType::kPing, "x"});
    ASSERT_TRUE(ping.ok()) << ping.status();
  }
  auto fifth = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fifth.ok()) << fifth.status();
  auto rejected =
      wire::RoundTrip(*fifth, {wire::MessageType::kPing, "overflow"});
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(rejected->status.message().find("retry"), std::string::npos);
  ::close(*fifth);
  EXPECT_GE(server.overload_rejections(), 1u);

  // The four admitted connections still serve after the shed.
  auto ping = wire::RoundTrip(fds[0], {wire::MessageType::kPing, "still"});
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->text, "still");
  for (int fd : fds) ::close(fd);
  server.Stop();
}

// --- Observability ----------------------------------------------------------

TEST(ServiceTest, UnusableQErrorSamplesDoNotPoisonAggregates) {
  obs::SetMetricsEnabled(true);
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  ASSERT_TRUE((*service)->EstimateLine("t 100 (a)-[0]->(b)").ok());
  const ServiceStats before = (*service)->Stats();
  ASSERT_FALSE(before.estimators.empty());
  EXPECT_TRUE(std::isfinite(before.estimators[0].mean_qerror));
  EXPECT_GE(before.estimators[0].mean_qerror, 1.0);
  const uint64_t samples_before = before.estimators[0].qerror.count;
  EXPECT_GT(samples_before, 0u);

  // truth == 0 parses, but no q-error is defined against it (the harness
  // yields NaN): the request must count toward latency accounting while
  // leaving the q-error mean and histogram untouched — one such line
  // must not poison the aggregate forever.
  auto zero_truth = (*service)->EstimateLine("t 0 (a)-[0]->(b)");
  ASSERT_TRUE(zero_truth.ok()) << zero_truth.status();
  EXPECT_TRUE(zero_truth->has_truth);

  const ServiceStats after = (*service)->Stats();
  EXPECT_TRUE(std::isfinite(after.estimators[0].mean_qerror));
  EXPECT_EQ(after.estimators[0].mean_qerror,
            before.estimators[0].mean_qerror);
  EXPECT_EQ(after.estimators[0].qerror.count, samples_before);
  EXPECT_EQ(after.estimators[0].requests,
            before.estimators[0].requests + 1);
}

TEST(ServiceTest, StatsQuantileSummariesPopulatedAndOrdered) {
  obs::SetMetricsEnabled(true);
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        (*service)->EstimateLine("t 50 (a)-[0]->(b); (b)-[1]->(c)").ok());
  }

  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.latency.count, 20u);
  EXPECT_LE(stats.latency.p50, stats.latency.p90);
  EXPECT_LE(stats.latency.p90, stats.latency.p99);
  EXPECT_LE(stats.latency.p99, stats.latency.max);
  for (const ServiceStats::EstimatorAccounting& e : stats.estimators) {
    EXPECT_EQ(e.latency.count, e.requests) << e.name;
    EXPECT_LE(e.qerror.count, e.requests) << e.name;
    if (e.qerror.count > 0) {
      // Q-errors are >= 1 by definition; the bucketed quantiles resolve
      // to upper bounds and can only stay at or above that floor.
      EXPECT_GE(e.qerror.p50, 1.0) << e.name;
      EXPECT_LE(e.qerror.p50, e.qerror.max) << e.name;
    }
  }
}

TEST(ServiceTest, RegistersPrometheusCollector) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const size_t before = registry.collector_count();
  {
    ServiceOptions options = DeterministicOptions();
    options.metrics_label = "obs_test_ds";
    auto service = EstimationService::Create(SmallGraph(), options);
    ASSERT_TRUE(service.ok()) << service.status();
    EXPECT_EQ(registry.collector_count(), before + 1);
    ASSERT_TRUE((*service)->EstimateLine("(a)-[0]->(b)").ok());

    const std::string page = registry.RenderPrometheus();
    EXPECT_NE(
        page.find(
            "cegraph_requests_served_total{dataset=\"obs_test_ds\"} 1"),
        std::string::npos);
    EXPECT_NE(page.find("cegraph_request_latency_micros_count"
                        "{dataset=\"obs_test_ds\"} 1"),
              std::string::npos);
    EXPECT_NE(page.find("cegraph_estimator_latency_micros_bucket"),
              std::string::npos);
    EXPECT_NE(page.find("cegraph_cache_entries"), std::string::npos);
  }
  // The destructor must deregister — a dead collector on the global
  // registry is a use-after-free on the next scrape.
  EXPECT_EQ(registry.collector_count(), before);
}

TEST(TcpServerTest, StatsV4ExtensionOverLoopback) {
  obs::SetMetricsEnabled(true);
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions server_options;
  server_options.workers = 2;
  TcpServer server(**service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  for (int i = 0; i < 5; ++i) {
    auto estimate = wire::RoundTrip(
        *fd, {wire::MessageType::kEstimate, "t 100 (a)-[0]->(b)"});
    ASSERT_TRUE(estimate.ok()) << estimate.status();
    ASSERT_TRUE(estimate->status.ok()) << estimate->status;
  }

  // A plain stats request gets the v3 reply — no extension, so old
  // clients see byte-compatible frames.
  auto v3 = wire::RoundTrip(*fd, {wire::MessageType::kStats, ""});
  ASSERT_TRUE(v3.ok()) << v3.status();
  ASSERT_TRUE(v3->status.ok()) << v3->status;
  EXPECT_FALSE(v3->stats.v4_wire);
  EXPECT_FALSE(v3->stats.server.present);
  EXPECT_GE(v3->stats.served, 5u);

  // Opting in via text == "v4" unlocks the full observability block.
  auto v4 = wire::RoundTrip(
      *fd,
      {wire::MessageType::kStats, std::string(wire::kStatsV4Token)});
  ASSERT_TRUE(v4.ok()) << v4.status();
  ASSERT_TRUE(v4->status.ok()) << v4->status;
  EXPECT_TRUE(v4->stats.v4_wire);
  ASSERT_TRUE(v4->stats.server.present);
  EXPECT_GE(v4->stats.server.connections_accepted, 1u);
  EXPECT_GE(v4->stats.server.frames_estimate, 5u);
  EXPECT_GT(v4->stats.server.bytes_in, 0u);
  EXPECT_GT(v4->stats.server.bytes_out, 0u);
  EXPECT_GE(v4->stats.latency.count, 5u);
  EXPECT_GE(v4->stats.admitted_weight, 5u);
  EXPECT_FALSE(v4->stats.caches.empty());
  ASSERT_EQ(v4->stats.estimators.size(), 4u);
  for (const ServiceStats::EstimatorAccounting& e : v4->stats.estimators) {
    EXPECT_EQ(e.latency.count, e.requests) << e.name;
    // Only estimators with usable truth samples carry q-error quantiles;
    // when they do, the summary must agree with the v3 mean's presence.
    if (e.mean_qerror > 0) EXPECT_GE(e.qerror.count, 1u) << e.name;
  }

  ::close(*fd);
  server.Stop();
}

TEST(TcpServerTest, ShedCountersTravelInV4Stats) {
  // Overflow the pipeline cap, then read the per-bound shed breakdown
  // back through the wire: the v4 block must attribute the rejections to
  // the pipeline bound, not lump them into one opaque total.
  obs::SetMetricsEnabled(true);
  auto service = EstimationService::Create(SmallGraph(),
                                           DeterministicOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions server_options;
  server_options.workers = 1;
  server_options.max_pipelined_requests = 2;
  TcpServer server(**service, server_options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = wire::DialTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  // Blast 32 pings in one buffer and one write so they hit the parser in
  // a single readiness callback; anything beyond the 2-frame pipeline
  // window is shed with a RESOURCE_EXHAUSTED frame.
  constexpr int kFrames = 32;
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    const std::string payload =
        wire::EncodeRequest({wire::MessageType::kPing, "p"});
    const uint32_t length = static_cast<uint32_t>(payload.size());
    burst.push_back(static_cast<char>(length & 0xff));
    burst.push_back(static_cast<char>((length >> 8) & 0xff));
    burst.push_back(static_cast<char>((length >> 16) & 0xff));
    burst.push_back(static_cast<char>((length >> 24) & 0xff));
    burst += payload;
  }
  size_t written = 0;
  while (written < burst.size()) {
    const ssize_t rc =
        ::write(*fd, burst.data() + written, burst.size() - written);
    ASSERT_GT(rc, 0);
    written += static_cast<size_t>(rc);
  }
  uint64_t shed_seen = 0;
  for (int i = 0; i < kFrames; ++i) {
    auto payload = wire::ReadFrame(*fd, wire::kMaxFrameBytes);
    ASSERT_TRUE(payload.ok()) << payload.status() << " at frame " << i;
    auto response = wire::DecodeResponse(*payload);
    ASSERT_TRUE(response.ok()) << response.status();
    if (!response->status.ok()) {
      EXPECT_EQ(response->status.code(),
                util::StatusCode::kResourceExhausted);
      ++shed_seen;
    }
  }
  EXPECT_GT(shed_seen, 0u);
  EXPECT_EQ(server.shed_pipeline_cap(), shed_seen);
  EXPECT_EQ(server.overload_rejections(), shed_seen);

  auto v4 = wire::RoundTrip(
      *fd,
      {wire::MessageType::kStats, std::string(wire::kStatsV4Token)});
  ASSERT_TRUE(v4.ok()) << v4.status();
  ASSERT_TRUE(v4->status.ok()) << v4->status;
  ASSERT_TRUE(v4->stats.server.present);
  EXPECT_EQ(v4->stats.server.shed_pipeline_cap, shed_seen);
  EXPECT_EQ(v4->stats.server.shed_connection_cap, 0u);

  ::close(*fd);
  server.Stop();
}

}  // namespace
}  // namespace cegraph::service
