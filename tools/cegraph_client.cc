// cegraph_client — command-line client for the cegraph_serve daemon.
//
//   cegraph_client --port P [--host H] [--dataset NAME] \
//                  --query "(a)-[3]->(b); ..." [--query "..." ...]
//   cegraph_client --port P --workload FILE [--threads N] [--passes K]
//                  [--batch-size B] [--quiet]
//   cegraph_client --port P --apply-deltas FILE
//   cegraph_client --port P --swap-snapshot PATH
//   cegraph_client --port P (--stats | --scorecard | --corrections)
//                  [--watch] [--interval S]
//   cegraph_client --port P (--ping | --shutdown)
//
// --stats requests the wire-v4 observability extension (the request's
// text field carries "v4"): besides the v3 counters it prints latency /
// batch-size / fold-duration quantiles, per-estimator latency and
// q-error distributions, admission weight units, the server's shed /
// backpressure / byte / frame counters and the serving state's cache
// rows. Against a pre-v4 server the extra tables are simply absent.
// --scorecard requests "v5" on top: the per-query-class accuracy
// scorecard (windowed q-error quantiles, under/over split, drift
// verdict vs the baseline stamped at the last snapshot load/hot swap)
// with each class's worst exemplar, plus the recent (1m) request
// latency and rate. --watch re-samples every --interval seconds
// (default 2) and annotates counters with their delta since the
// previous sample — "(reset)" marks a counter that went backwards
// (server restart) — reconnecting through transport errors; stop with
// ^C. --corrections also requests "v5" and prints the learned-feedback
// loop's state (wire-v5 corrections extension): feedback mode,
// applied/suppressed counters, trailing-minute pre- vs post-correction
// q-error medians and the per-class correction table. Against a
// feedback-unaware server the section is simply absent.
//
// --request-id N stamps the wire-v5 end-to-end request id (decimal or
// 0x-hex) on the request; the server echoes it and threads it through
// its slow-request log and journal, and the client prints the echo.
//
// --dataset routes the request to the named dataset of a multi-dataset
// daemon (wire protocol v2); without it the server's default dataset
// answers. --query may repeat: two or more queries travel together as ONE
// wire-v3 batch frame over one connection and are answered in order from
// a single serving epoch. --workload streams a saved workload file
// (query/workload_io.h format, ground truth included) from N concurrent
// connections — each thread reuses its one connection for its whole share
// — and prints per-query results plus per-estimator aggregate q-error and
// latency; --batch-size B > 1 packs each thread's share into v3 batch
// frames of B lines. A RESOURCE_EXHAUSTED error frame (admission or
// server overload) is retried with backoff up to --retries times before
// counting as a failure. --apply-deltas sends a delta text feed
// (dynamic/delta_io.h format) inline; the server folds it into a new
// serving state and answers with the post-swap epoch. --swap-snapshot
// names a *server-local* snapshot path (monolithic file or shard
// manifest).
//
// Exit status is 0 iff every request succeeded. A server-side error frame
// (unknown dataset, admission rejection, bad feed, ...) exits nonzero
// with the server's own message on stderr, prefixed "server error:";
// transport failures (connection refused/reset) are prefixed
// "transport error:" so the two are never conflated.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/qerror.h"
#include "query/workload_io.h"
#include "service/wire.h"
#include "util/table_printer.h"

namespace {

using namespace cegraph;
using service::wire::MessageType;
using service::wire::Request;
using service::wire::Response;

int Usage() {
  std::fprintf(
      stderr,
      "usage: cegraph_client --port P [--host H] [--dataset NAME] "
      "[--retries R] <command>\n"
      "  --query \"PATTERN\"            one estimation request; repeat the\n"
      "                               flag to send one v3 batch frame\n"
      "  --workload FILE [--threads N] [--passes K] [--batch-size B]\n"
      "                 [--quiet]\n"
      "  --apply-deltas FILE           send a delta feed, hot-swap\n"
      "  --swap-snapshot PATH          server-local snapshot/manifest path\n"
      "  --stats | --scorecard | --corrections  [--watch] [--interval S]\n"
      "  --ping | --shutdown\n"
      "  --request-id N                stamp an end-to-end request id\n");
  return 2;
}

std::string U64(uint64_t v) { return std::to_string(v); }

/// "N (+D)" when a previous sample exists, plain "N" otherwise. A
/// counter that went *backwards* (the server restarted between samples)
/// is marked "(reset)" instead of faking a zero delta.
std::string WithDelta(uint64_t now, const uint64_t* prev) {
  if (prev == nullptr) return U64(now);
  if (now < *prev) return U64(now) + " (reset)";
  return U64(now) + " (+" + U64(now - *prev) + ")";
}

void AddSummaryRow(util::TablePrinter& table, const std::string& name,
                   const cegraph::obs::QuantileSummary& s) {
  table.AddRow({name, U64(s.count), util::TablePrinter::Num(s.mean),
                util::TablePrinter::Num(s.p50),
                util::TablePrinter::Num(s.p90),
                util::TablePrinter::Num(s.p99),
                util::TablePrinter::Num(s.max)});
}

/// Prints one stats response; `prev` (the previous --watch sample, may be
/// null) turns monotonic counters into "N (+delta)" annotations.
void PrintStats(const Response& response, const service::ServiceStats* prev) {
  const service::ServiceStats& s = response.stats;
  if (!response.dataset.empty()) {
    std::printf("dataset %s\n", response.dataset.c_str());
  }
  std::printf(
      "served %s, rejected %s, request errors %s\n"
      "epoch %llu (state v%llu), %llu swaps, %zu pending delta ops\n"
      "replay log %zu ops (min replayable epoch %llu)\n"
      "in flight %lld (peak %lld), mean latency %.1f us\n",
      WithDelta(s.served, prev ? &prev->served : nullptr).c_str(),
      WithDelta(s.rejected, prev ? &prev->rejected : nullptr).c_str(),
      WithDelta(s.request_errors, prev ? &prev->request_errors : nullptr)
          .c_str(),
      static_cast<unsigned long long>(s.epoch),
      static_cast<unsigned long long>(s.version),
      static_cast<unsigned long long>(s.swaps), s.pending_delta_ops,
      s.replay_log_ops,
      static_cast<unsigned long long>(s.min_replayable_epoch),
      static_cast<long long>(s.in_flight),
      static_cast<long long>(s.peak_in_flight), s.mean_latency_micros);
  for (const auto& e : s.estimators) {
    std::printf("  %-14s %llu requests, %llu failures, %.1f us, mean "
                "q-error %.3g\n",
                e.name.c_str(),
                static_cast<unsigned long long>(e.requests),
                static_cast<unsigned long long>(e.failures), e.mean_micros,
                e.mean_qerror);
  }
  if (s.snapshot_load.loaded) {
    std::printf("snapshot load: %s, open %.2f ms, %s %.2f ms, "
                "%llu bytes mapped, epoch %llu\n",
                s.snapshot_load.mapped ? "mapped (arena)" : "parsed",
                s.snapshot_load.map_millis,
                s.snapshot_load.mapped ? "attach" : "apply",
                s.snapshot_load.parse_millis,
                static_cast<unsigned long long>(
                    s.snapshot_load.mapped_bytes),
                static_cast<unsigned long long>(
                    s.snapshot_load.snapshot_epoch));
  }
  if (!s.v4_wire) return;  // pre-v4 server: nothing below travelled

  std::printf("weight units: admitted %s, rejected %s; snapshot loads %s\n",
              WithDelta(s.admitted_weight,
                        prev ? &prev->admitted_weight : nullptr)
                  .c_str(),
              WithDelta(s.rejected_weight,
                        prev ? &prev->rejected_weight : nullptr)
                  .c_str(),
              WithDelta(s.snapshot_loads,
                        prev ? &prev->snapshot_loads : nullptr)
                  .c_str());
  if (s.server.present) {
    const auto& sv = s.server;
    const service::ServiceStats::ServerCounters* pv =
        prev != nullptr && prev->server.present ? &prev->server : nullptr;
    std::printf(
        "server: connections %s accepted, %llu active; backpressure %s\n"
        "  shed: admission %s, connection cap %s, pipeline cap %s\n"
        "  bytes in %s out %s; frames estimate %s batch %s other %s\n",
        WithDelta(sv.connections_accepted,
                  pv ? &pv->connections_accepted : nullptr)
            .c_str(),
        static_cast<unsigned long long>(sv.connections_active),
        WithDelta(sv.backpressure_events,
                  pv ? &pv->backpressure_events : nullptr)
            .c_str(),
        WithDelta(s.rejected, prev ? &prev->rejected : nullptr).c_str(),
        WithDelta(sv.shed_connection_cap,
                  pv ? &pv->shed_connection_cap : nullptr)
            .c_str(),
        WithDelta(sv.shed_pipeline_cap,
                  pv ? &pv->shed_pipeline_cap : nullptr)
            .c_str(),
        WithDelta(sv.bytes_in, pv ? &pv->bytes_in : nullptr).c_str(),
        WithDelta(sv.bytes_out, pv ? &pv->bytes_out : nullptr).c_str(),
        WithDelta(sv.frames_estimate, pv ? &pv->frames_estimate : nullptr)
            .c_str(),
        WithDelta(sv.frames_batch, pv ? &pv->frames_batch : nullptr)
            .c_str(),
        WithDelta(sv.frames_other, pv ? &pv->frames_other : nullptr)
            .c_str());
  }

  util::TablePrinter dist(
      {"distribution", "count", "mean", "p50", "p90", "p99", "max"});
  AddSummaryRow(dist, "latency us", s.latency);
  AddSummaryRow(dist, "batch lines", s.batch_lines);
  AddSummaryRow(dist, "fold ms", s.fold_millis);
  dist.Print(std::cout);

  if (!s.estimators.empty()) {
    util::TablePrinter est({"estimator", "lat p50", "lat p90", "lat p99",
                            "lat max", "qerr p50", "qerr p90", "qerr p99",
                            "qerr max"});
    for (const auto& e : s.estimators) {
      est.AddRow({e.name, util::TablePrinter::Num(e.latency.p50),
                  util::TablePrinter::Num(e.latency.p90),
                  util::TablePrinter::Num(e.latency.p99),
                  util::TablePrinter::Num(e.latency.max),
                  util::TablePrinter::Num(e.qerror.p50),
                  util::TablePrinter::Num(e.qerror.p90),
                  util::TablePrinter::Num(e.qerror.p99),
                  util::TablePrinter::Num(e.qerror.max)});
    }
    est.Print(std::cout);
  }

  if (!s.caches.empty()) {
    util::TablePrinter caches(
        {"cache", "entries", "hits", "misses", "evictions"});
    for (const auto& c : s.caches) {
      caches.AddRow({c.name, U64(c.entries), U64(c.hits), U64(c.misses),
                     U64(c.evictions)});
    }
    caches.Print(std::cout);
  }

  if (!s.scorecard_wire) return;  // pre-v5 server / --stats: no scorecard

  std::printf(
      "\nscorecard (window %llds): recent rate %.1f req/s, "
      "latency p50 %.1f us p99 %.1f us (1m); drift: %s\n",
      static_cast<long long>(s.scorecard_window_seconds), s.rate_1m,
      s.latency_1m.p50, s.latency_1m.p99, s.any_drift ? "YES" : "none");
  if (s.scorecard.empty()) {
    std::printf("no truth-carrying estimates in the window yet\n");
  } else {
    util::TablePrinter classes({"class", "hits", "under", "over", "qerr p50",
                                "qerr p99", "qerr max", "baseline", "drift"});
    for (const auto& c : s.scorecard) {
      classes.AddRow(
          {c.display, U64(c.hits), U64(c.under), U64(c.over),
           util::TablePrinter::Num(c.qerror.p50),
           util::TablePrinter::Num(c.qerror.p99),
           util::TablePrinter::Num(c.qerror.max),
           c.baseline_median > 0 ? util::TablePrinter::Num(c.baseline_median)
                                 : "-",
           c.drifted ? "YES" : "-"});
    }
    classes.Print(std::cout);
    for (const auto& c : s.scorecard) {
      if (c.worst.qerror <= 0) continue;
      std::printf("  %s worst q-error %.3g (%s: estimate %.4g, truth %.4g): "
                  "%s\n",
                  c.display.c_str(), c.worst.qerror, c.worst.estimator.c_str(),
                  c.worst.estimate, c.worst.truth, c.worst.line.c_str());
    }
  }

  if (!s.corrections_wire) return;  // feedback-unaware server
  const char* mode = s.feedback_mode == service::FeedbackMode::kOn ? "on"
                     : s.feedback_mode == service::FeedbackMode::kFrozen
                         ? "frozen"
                         : "off";
  std::printf(
      "\ncorrections (feedback %s): %llu classes (%llu active, %s evicted), "
      "applied %s, suppressed %s\n"
      "q-error 1m: pre-correction p50 %.3g p99 %.3g, "
      "post-correction p50 %.3g p99 %.3g\n",
      mode, static_cast<unsigned long long>(s.feedback_classes),
      static_cast<unsigned long long>(s.feedback_active),
      WithDelta(s.feedback_evictions,
                prev ? &prev->feedback_evictions : nullptr)
          .c_str(),
      WithDelta(s.corrections_applied,
                prev ? &prev->corrections_applied : nullptr)
          .c_str(),
      WithDelta(s.corrections_suppressed,
                prev ? &prev->corrections_suppressed : nullptr)
          .c_str(),
      s.qerror_raw_1m.p50, s.qerror_raw_1m.p99, s.qerror_corrected_1m.p50,
      s.qerror_corrected_1m.p99);
  if (s.corrections.empty()) {
    std::printf("no correction classes learned yet\n");
    return;
  }
  util::TablePrinter table(
      {"class", "estimator", "hits", "samples", "correction", "active"});
  for (const auto& c : s.corrections) {
    // The class key is "estimator|template|labels"; keep the estimator
    // column separate so one query class's rows group visually.
    const std::string::size_type bar = c.key.find('|');
    table.AddRow({c.display,
                  bar == std::string::npos ? c.key : c.key.substr(0, bar),
                  U64(c.hits), U64(c.samples),
                  util::TablePrinter::Num(c.correction),
                  c.active ? "YES" : "-"});
  }
  table.Print(std::cout);
}

/// Per-attempt retry pause: exponential from 1 ms, clamped to a 2 s
/// ceiling (large --retries values must widen the tail, not the pause),
/// with ±25% jitter so a fleet of clients rejected together does not
/// re-stampede the server on a synchronized schedule.
std::chrono::milliseconds RetryPause(int attempt) {
  constexpr long kMaxPauseMs = 2000;
  const long base =
      attempt >= 11 ? kMaxPauseMs
                    : std::min(kMaxPauseMs, 1L << std::min(attempt, 11));
  thread_local std::mt19937 rng(
      std::random_device{}() ^
      static_cast<unsigned>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  std::uniform_int_distribution<long> jitter(-base / 4, base / 4);
  return std::chrono::milliseconds(std::max(1L, base + jitter(rng)));
}

/// RoundTrip that retries the retryable refusal: a RESOURCE_EXHAUSTED
/// error frame (admission or overload rejection) is resent after a
/// capped, jittered exponential pause (RetryPause), up to `retries`
/// times. Every other outcome — transport failure or any other server
/// error — returns immediately.
util::StatusOr<Response> RoundTripRetry(int fd, const Request& request,
                                        int retries) {
  for (int attempt = 0;; ++attempt) {
    auto response = service::wire::RoundTrip(fd, request);
    if (!response.ok()) return response;
    if (response->status.code() != util::StatusCode::kResourceExhausted ||
        attempt >= retries) {
      return response;
    }
    std::this_thread::sleep_for(RetryPause(attempt));
  }
}

/// Sends one request over a fresh connection. The outer StatusOr carries
/// only *transport* failures; a server-side error frame comes back as an
/// OK result whose Response::status is non-OK, so callers can attribute
/// failures correctly (the server's message, not a generic read error).
util::StatusOr<Response> OneShot(const std::string& host, int port,
                                 const Request& request, int retries) {
  auto fd = service::wire::DialTcp(host, port);
  if (!fd.ok()) return fd.status();
  auto response = RoundTripRetry(*fd, request, retries);
  ::close(*fd);
  return response;
}

void PrintEstimate(const service::EstimateResponse& estimate,
                   const std::string& dataset) {
  std::printf("%s%s%sepoch %llu (state v%llu), %.1f us\n",
              dataset.empty() ? "" : "dataset ", dataset.c_str(),
              dataset.empty() ? "" : ", ",
              static_cast<unsigned long long>(estimate.epoch),
              static_cast<unsigned long long>(estimate.state_version),
              estimate.total_micros);
  util::TablePrinter table(estimate.has_truth
                               ? std::vector<std::string>{"estimator",
                                                          "estimate",
                                                          "q-error", "us"}
                               : std::vector<std::string>{"estimator",
                                                          "estimate", "us"});
  for (const service::EstimatorResult& r : estimate.results) {
    std::vector<std::string> row{r.name,
                                 r.ok ? util::TablePrinter::Num(r.estimate)
                                      : r.error};
    if (estimate.has_truth) {
      row.push_back(r.ok ? util::TablePrinter::Num(r.qerror) : "-");
    }
    row.push_back(util::TablePrinter::Num(r.micros));
    table.AddRow(row);
  }
  if (estimate.has_truth) {
    table.AddRow({"exact", util::TablePrinter::Num(estimate.truth),
                  estimate.has_truth ? "1" : "-", "-"});
  }
  table.Print(std::cout);
}

int RunWorkload(const std::string& host, int port,
                const std::string& dataset,
                const std::string& workload_file, int threads, int passes,
                int batch_size, int retries, bool quiet) {
  auto workload = query::LoadWorkload(workload_file);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  // Request lines travel exactly as saved: "<template> <truth> <pattern>".
  std::vector<std::string> lines;
  lines.reserve(workload->size());
  {
    std::ostringstream text;
    if (!query::WriteWorkloadText(*workload, text).ok()) return 1;
    std::istringstream in(text.str());
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') lines.push_back(line);
    }
  }

  struct Accum {
    uint64_t requests = 0;
    uint64_t failures = 0;
    double micros = 0;
    double qerror_sum = 0;
    double qerror_max = 0;
    uint64_t qerror_count = 0;
  };
  std::mutex mutex;
  std::map<std::string, Accum> per_estimator;
  std::map<uint64_t, size_t> per_epoch;
  size_t errors = 0;

  if (threads < 1) threads = 1;
  auto worker = [&](int tid) {
    // This thread's stride-interleaved share per pass, so a dead
    // connection charges every request it can no longer send as an error
    // (the summary must not under-report a truncated sample).
    const size_t share =
        (lines.size() + static_cast<size_t>(threads) - 1 -
         static_cast<size_t>(tid)) /
        static_cast<size_t>(threads);
    auto fd = service::wire::DialTcp(host, port);
    if (!fd.ok()) {
      std::lock_guard<std::mutex> lock(mutex);
      errors += share * static_cast<size_t>(passes);  // whole share lost
      std::fprintf(stderr, "transport error: %s\n",
                   fd.status().ToString().c_str());
      return;
    }
    // This thread's stride-interleaved indices (one pass's worth).
    std::vector<size_t> mine;
    for (size_t i = static_cast<size_t>(tid); i < lines.size();
         i += static_cast<size_t>(threads)) {
      mine.push_back(i);
    }
    const size_t chunk =
        batch_size > 1 ? static_cast<size_t>(batch_size) : 1;
    size_t sent = 0;  ///< queries completed across passes
    for (int pass = 0; pass < passes; ++pass) {
      for (size_t b = 0; b < mine.size(); b += chunk) {
        const size_t n = std::min(chunk, mine.size() - b);
        Request request;
        request.dataset = dataset;
        if (batch_size > 1) {
          // v3 batch frame: n lines, one round trip, one serving epoch.
          request.type = MessageType::kBatchEstimate;
          request.lines.reserve(n);
          for (size_t j = 0; j < n; ++j) {
            request.lines.push_back(lines[mine[b + j]]);
          }
        } else {
          request.type = MessageType::kEstimate;
          request.text = lines[mine[b]];
        }
        auto response = RoundTripRetry(*fd, request, retries);
        if (!response.ok()) {
          // Transport failure: the connection is dead, so the rest of
          // this thread's share cannot be sent either — charge it all
          // instead of spamming a read error per remaining query.
          std::lock_guard<std::mutex> lock(mutex);
          errors += share * static_cast<size_t>(passes) - sent;
          std::fprintf(stderr, "query %zu transport error: %s\n",
                       mine[b], response.status().ToString().c_str());
          ::close(*fd);
          return;
        }
        sent += n;
        std::lock_guard<std::mutex> lock(mutex);
        if (!response->status.ok()) {
          // Frame-level refusal (post-retry saturation, bad dataset, ...)
          // fails every query the frame carried.
          errors += n;
          std::fprintf(stderr, "quer%s %zu%s server error: %s\n",
                       n == 1 ? "y" : "ies", mine[b],
                       n == 1 ? "" : "...",
                       response->status.ToString().c_str());
          continue;
        }
        if (batch_size > 1 && response->batch.size() != n) {
          errors += n;
          std::fprintf(stderr,
                       "batch at query %zu: %zu items answered for %zu "
                       "lines\n",
                       mine[b], response->batch.size(), n);
          continue;
        }
        for (size_t j = 0; j < n; ++j) {
          const size_t i = mine[b + j];
          const util::Status& item_status =
              batch_size > 1 ? response->batch[j].status
                             : response->status;
          if (!item_status.ok()) {
            ++errors;
            std::fprintf(stderr, "query %zu server error: %s\n", i,
                         item_status.ToString().c_str());
            continue;
          }
          const service::EstimateResponse& e =
              batch_size > 1 ? response->batch[j].estimate
                             : response->estimate;
          ++per_epoch[e.epoch];
          for (const service::EstimatorResult& r : e.results) {
            Accum& accum = per_estimator[r.name];
            ++accum.requests;
            accum.micros += r.micros;
            if (!r.ok) {
              ++accum.failures;
            } else if (e.has_truth && harness::UsableQError(r.qerror)) {
              accum.qerror_sum += r.qerror;
              accum.qerror_max = std::max(accum.qerror_max, r.qerror);
              ++accum.qerror_count;
            }
          }
          if (!quiet && pass == 0) {
            std::printf("query %-4zu epoch %llu", i,
                        static_cast<unsigned long long>(e.epoch));
            for (const service::EstimatorResult& r : e.results) {
              if (r.ok) {
                std::printf("  %s=%.4g", r.name.c_str(), r.estimate);
              } else {
                std::printf("  %s=ERR", r.name.c_str());
              }
            }
            std::printf("\n");
          }
        }
      }
    }
    ::close(*fd);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();

  std::printf(
      "\n%zu queries x %d passes over %d connections%s; %zu errors\n",
      lines.size(), passes, threads,
      batch_size > 1
          ? (" (batched x" + std::to_string(batch_size) + ")").c_str()
          : "",
      errors);
  std::printf("epochs observed:");
  for (const auto& [epoch, count] : per_epoch) {
    std::printf(" %llu(x%zu)", static_cast<unsigned long long>(epoch),
                count);
  }
  std::printf("\n\n");
  util::TablePrinter table(
      {"estimator", "requests", "failures", "mean q-error", "max q-error",
       "mean us"});
  for (const auto& [name, accum] : per_estimator) {
    table.AddRow(
        {name, std::to_string(accum.requests),
         std::to_string(accum.failures),
         accum.qerror_count > 0
             ? util::TablePrinter::Num(accum.qerror_sum /
                                       static_cast<double>(
                                           accum.qerror_count))
             : "-",
         accum.qerror_count > 0 ? util::TablePrinter::Num(accum.qerror_max)
                                : "-",
         accum.requests > 0
             ? util::TablePrinter::Num(
                   accum.micros / static_cast<double>(accum.requests))
             : "-"});
  }
  table.Print(std::cout);
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string dataset;
  std::vector<std::string> query_texts;
  std::string workload_file, deltas_file, snapshot_path;
  bool stats = false, ping = false, shutdown = false, quiet = false;
  bool watch = false, scorecard = false, corrections = false;
  int threads = 1, passes = 1, batch_size = 1, retries = 3, interval = 2;
  uint64_t request_id = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--host") {
      if (!next(&host)) return Usage();
    } else if (arg == "--dataset") {
      if (!next(&dataset)) return Usage();
    } else if (arg == "--port") {
      if (!next(&value)) return Usage();
      port = std::atoi(value.c_str());
    } else if (arg == "--query") {
      if (!next(&value)) return Usage();
      query_texts.push_back(value);
    } else if (arg == "--workload") {
      if (!next(&workload_file)) return Usage();
    } else if (arg == "--apply-deltas") {
      if (!next(&deltas_file)) return Usage();
    } else if (arg == "--swap-snapshot") {
      if (!next(&snapshot_path)) return Usage();
    } else if (arg == "--threads") {
      if (!next(&value)) return Usage();
      threads = std::atoi(value.c_str());
    } else if (arg == "--passes") {
      if (!next(&value)) return Usage();
      passes = std::atoi(value.c_str());
    } else if (arg == "--batch-size") {
      if (!next(&value)) return Usage();
      batch_size = std::atoi(value.c_str());
    } else if (arg == "--retries") {
      if (!next(&value)) return Usage();
      retries = std::atoi(value.c_str());
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--scorecard") {
      scorecard = true;
    } else if (arg == "--corrections") {
      corrections = true;
    } else if (arg == "--request-id") {
      if (!next(&value)) return Usage();
      request_id = std::strtoull(value.c_str(), nullptr, 0);
    } else if (arg == "--watch") {
      watch = true;
    } else if (arg == "--interval") {
      if (!next(&value)) return Usage();
      interval = std::atoi(value.c_str());
    } else if (arg == "--ping") {
      ping = true;
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }
  if (port <= 0) return Usage();

  if (!workload_file.empty()) {
    return RunWorkload(host, port, dataset, workload_file, threads, passes,
                       batch_size, retries, quiet);
  }

  Request request;
  if (query_texts.size() == 1) {
    request = {MessageType::kEstimate, query_texts.front(), dataset};
  } else if (query_texts.size() > 1) {
    // Several --query flags ride one v3 batch frame: one connection, one
    // round trip, one serving epoch for all of them.
    request.type = MessageType::kBatchEstimate;
    request.dataset = dataset;
    request.lines = query_texts;
  } else if (!deltas_file.empty()) {
    std::ifstream in(deltas_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", deltas_file.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    request = {MessageType::kApplyDeltas, text.str(), dataset};
  } else if (!snapshot_path.empty()) {
    request = {MessageType::kSwapSnapshot, snapshot_path, dataset};
  } else if (scorecard || corrections) {
    // "v5" opts into the v4 observability extension *and* the per-class
    // accuracy scorecard *and* the corrections extension; a pre-v5
    // server just echoes a v3 stats body.
    request = {MessageType::kStats, "v5", dataset};
  } else if (stats) {
    // "v4" opts into the observability extension; a pre-v4 server just
    // echoes a v3 stats body and the extra tables stay absent.
    request = {MessageType::kStats, "v4", dataset};
  } else if (ping) {
    // A dataset-qualified ping doubles as a routing probe: the server
    // validates the name without touching the service.
    request = {MessageType::kPing, "", dataset};
  } else if (shutdown) {
    // Shutdown is server-wide; the server rejects a dataset-qualified one.
    request = {MessageType::kShutdown, ""};
  } else {
    return Usage();
  }
  request.request_id = request_id;

  if ((stats || scorecard || corrections) && watch) {
    // Re-sample forever (until ^C), annotating monotonic counters with
    // their delta since the previous sample. Each sample is its own
    // connection, so a restarted server only costs failed samples, not
    // the watch: transport errors are reported and retried on the same
    // cadence, and the delta baseline is dropped — the first sample
    // after a reconnect prints plain counters (or "(reset)" markers).
    service::ServiceStats prev;
    bool have_prev = false;
    for (int sample = 0;; ++sample) {
      auto pause = [interval] {
        std::this_thread::sleep_for(
            std::chrono::seconds(interval < 1 ? 1 : interval));
      };
      auto response = OneShot(host, port, request, retries);
      if (!response.ok()) {
        std::fprintf(stderr, "transport error: %s (retrying in %ds)\n",
                     response.status().ToString().c_str(),
                     interval < 1 ? 1 : interval);
        have_prev = false;
        pause();
        continue;
      }
      if (!response->status.ok()) {
        // A server-side error frame (unknown dataset, ...) is a request
        // problem, not an outage — retrying would loop on it forever.
        std::fprintf(stderr, "server error: %s\n",
                     response->status.ToString().c_str());
        return 1;
      }
      std::printf("%s--- sample %d (every %ds) ---\n",
                  sample == 0 ? "" : "\n", sample, interval);
      PrintStats(*response, have_prev ? &prev : nullptr);
      std::fflush(stdout);
      prev = response->stats;
      have_prev = true;
      pause();
    }
  }

  auto response = OneShot(host, port, request, retries);
  if (!response.ok()) {
    std::fprintf(stderr, "transport error: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  if (response->request_id != 0) {
    // The v5 echo — the same 16 hex chars the server's slow log and
    // journal print, so one grep correlates all three.
    std::printf("request id %016llx\n",
                static_cast<unsigned long long>(response->request_id));
  }
  if (!response->status.ok()) {
    // The server answered with an error frame: its own message is the
    // diagnosis (unknown dataset, admission rejection, bad feed, ...).
    std::fprintf(stderr, "server error: %s\n",
                 response->status.ToString().c_str());
    return 1;
  }
  switch (request.type) {
    case MessageType::kEstimate:
      PrintEstimate(response->estimate, response->dataset);
      break;
    case MessageType::kBatchEstimate: {
      size_t item_errors = 0;
      for (size_t i = 0; i < response->batch.size(); ++i) {
        const service::BatchEstimateItem& item = response->batch[i];
        std::printf("[%zu] %s\n", i,
                    i < request.lines.size() ? request.lines[i].c_str()
                                             : "?");
        if (!item.status.ok()) {
          ++item_errors;
          std::fprintf(stderr, "[%zu] server error: %s\n", i,
                       item.status.ToString().c_str());
          continue;
        }
        PrintEstimate(item.estimate, response->dataset);
      }
      if (item_errors > 0) return 1;
      break;
    }
    case MessageType::kApplyDeltas:
    case MessageType::kSwapSnapshot: {
      const service::SwapReport& swap = response->swap;
      std::printf(
          "swapped to epoch %llu (state v%llu): %zu ops applied "
          "(+%zu/-%zu edges, %zu labels, %zu entries evicted), %zu log "
          "ops trimmed%s\n",
          static_cast<unsigned long long>(swap.epoch),
          static_cast<unsigned long long>(swap.version), swap.applied_ops,
          swap.maintenance.inserted_edges, swap.maintenance.deleted_edges,
          swap.maintenance.changed_labels,
          swap.maintenance.total_evicted(), swap.trimmed_log_ops,
          swap.snapshot_stale ? " (stale snapshot, deltas replayed)" : "");
      break;
    }
    case MessageType::kStats:
      PrintStats(*response, nullptr);
      break;
    case MessageType::kPing:
    case MessageType::kShutdown:
      std::printf("%s\n", response->text.c_str());
      break;
  }
  return 0;
}
