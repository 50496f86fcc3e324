// bench_service_throughput — serving-layer acceptance gates.
//
// Four questions about the estimation service, all PASS-gated:
//
//  1. Does TCP loopback serving throughput scale with server worker
//     threads? 8 pipelining client connections hammer the same warmed
//     service twice — once behind 1 worker, once behind 8 — and the
//     requests/sec ratio is the parallel speedup of the dispatcher +
//     wait-free reader design. The bar is >= 3x on machines with >= 8
//     hardware threads, >= 0.6 x #threads on smaller ones; on a
//     single-core machine the parallel gate is SKIPped (there is no
//     parallelism to measure) and only the error-free bar is enforced.
//
//  2. Does a snapshot hot-swap / delta compaction under sustained load
//     drop or mix anything? 8 client threads hammer in-process while a
//     maintainer publishes a stream of delta swaps; the gate is zero
//     failed requests and zero responses whose estimate vector is
//     inconsistent with the single epoch they claim (the RCU contract).
//
//  3. Does the epoll event loop hold its throughput as connections scale
//     past the worker count? A fixed 8-worker server is measured at
//     8 connections (8 client threads, one connection each — the
//     reference row) and at 64 / 256 / 1024 concurrent connections (16
//     client threads juggle them round-robin, so most connections are
//     idle at any instant — the many-idle-clients shape the event loop
//     exists for), reporting requests/sec plus p50/p99 request latency.
//     The gate: every scaled level runs error-free and holds a
//     hardware-scaled fraction of the reference row's throughput. Levels
//     whose fd budget exceeds RLIMIT_NOFILE (after raising it to the
//     hard limit) are SKIPped with a note. A wire-v3 batch run (batch
//     16) is reported for reference, unmeasured by the gate.
//
//  4. Is the observability layer actually free enough to leave on? The
//     same warmed service — per-class accuracy scorecards recording on
//     every truth-carrying request and a structured event journal
//     attached — is measured with metrics enabled and with
//     obs::SetMetricsEnabled(false) (what CEGRAPH_METRICS=off does),
//     best of 3 runs each; the gate is enabled >= 95% of disabled
//     throughput — histograms, windowed buckets, stage traces, and
//     scorecard updates together must cost < 5%.
//
// Usage: bench_service_throughput [instances_per_template] [dataset]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dynamic/delta_io.h"
#include "harness/service_driver.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "query/workload_io.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/table_printer.h"

namespace {

using namespace cegraph;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct TcpRunResult {
  size_t ok = 0;
  size_t errors = 0;
  double seconds = 0;
  double rps() const {
    return seconds > 0 ? static_cast<double>(ok) / seconds : 0;
  }
};

/// `client_threads` connections pipeline estimate requests against a
/// server with `workers` worker threads for `duration` seconds.
TcpRunResult MeasureTcpThroughput(service::EstimationService& service,
                                  int workers, int client_threads,
                                  const std::vector<std::string>& lines,
                                  double duration) {
  service::ServerOptions options;
  options.workers = workers;
  service::TcpServer server(service, options);
  if (auto started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    std::abort();
  }

  std::vector<TcpRunResult> per_thread(
      static_cast<size_t>(client_threads));
  const auto t0 = Clock::now();
  auto client = [&](size_t tid) {
    TcpRunResult& mine = per_thread[tid];
    auto fd = service::wire::DialTcp("127.0.0.1", server.port());
    if (!fd.ok()) {
      ++mine.errors;
      return;
    }
    for (size_t i = tid; SecondsSince(t0) < duration; ++i) {
      auto response = service::wire::RoundTrip(
          *fd, {service::wire::MessageType::kEstimate,
                lines[i % lines.size()]});
      if (response.ok() && response->status.ok()) {
        ++mine.ok;
      } else {
        ++mine.errors;
      }
    }
    ::close(*fd);
  };
  std::vector<std::thread> pool;
  for (size_t tid = 1; tid < static_cast<size_t>(client_threads); ++tid) {
    pool.emplace_back(client, tid);
  }
  client(0);
  for (std::thread& t : pool) t.join();

  TcpRunResult total;
  total.seconds = SecondsSince(t0);
  for (const TcpRunResult& mine : per_thread) {
    total.ok += mine.ok;
    total.errors += mine.errors;
  }
  server.Stop();
  return total;
}

struct ScalingResult {
  size_t ok = 0;
  size_t errors = 0;
  double seconds = 0;
  double p50_micros = 0;
  double p99_micros = 0;
  double rps() const {
    return seconds > 0 ? static_cast<double>(ok) / seconds : 0;
  }
};

/// `conns` concurrent connections against a server with `workers`
/// workers: `client_threads` threads each own conns/threads sockets and
/// walk them round-robin (one in-flight request per thread), so at high
/// conn counts almost every connection is idle at any instant.
/// `batch` > 1 sends wire-v3 batch frames of that many lines; ok counts
/// answered lines either way. Latency is wall time per round trip.
ScalingResult MeasureConnScaling(service::EstimationService& service,
                                 int workers, int conns, int client_threads,
                                 int batch,
                                 const std::vector<std::string>& lines,
                                 double duration) {
  service::ServerOptions options;
  options.workers = workers;
  service::TcpServer server(service, options);
  if (auto started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    std::abort();
  }

  if (client_threads > conns) client_threads = conns;
  struct PerThread {
    size_t ok = 0;
    size_t errors = 0;
    std::vector<double> latencies_micros;
  };
  std::vector<PerThread> per_thread(static_cast<size_t>(client_threads));

  // Dial barrier: the clock starts only once every thread holds its
  // connections, so measured time is serving time, not (at 1024 conns,
  // substantial) connection setup.
  std::mutex ready_mutex;
  std::condition_variable ready_cv;
  int ready = 0;
  bool go = false;
  Clock::time_point t0;

  auto client = [&](size_t tid) {
    PerThread& mine = per_thread[tid];
    // This thread's share of the connection count, all held open for the
    // whole run — the fd load is the point of the measurement.
    std::vector<int> fds;
    for (int c = static_cast<int>(tid); c < conns; c += client_threads) {
      auto fd = service::wire::DialTcp("127.0.0.1", server.port());
      if (!fd.ok()) {
        ++mine.errors;
        continue;
      }
      fds.push_back(*fd);
    }
    {
      std::unique_lock<std::mutex> lock(ready_mutex);
      if (++ready == client_threads) {
        go = true;
        t0 = Clock::now();
        ready_cv.notify_all();
      } else {
        ready_cv.wait(lock, [&] { return go; });
      }
    }
    size_t next_line = tid;
    for (size_t round = 0; SecondsSince(t0) < duration; ++round) {
      for (size_t c = 0; c < fds.size() && SecondsSince(t0) < duration;
           ++c) {
        service::wire::Request request;
        if (batch > 1) {
          request.type = service::wire::MessageType::kBatchEstimate;
          for (int j = 0; j < batch; ++j) {
            request.lines.push_back(lines[next_line++ % lines.size()]);
          }
        } else {
          request.type = service::wire::MessageType::kEstimate;
          request.text = lines[next_line++ % lines.size()];
        }
        const auto r0 = Clock::now();
        auto response = service::wire::RoundTrip(fds[c], request);
        const double micros =
            std::chrono::duration<double, std::micro>(Clock::now() - r0)
                .count();
        if (!response.ok() || !response->status.ok()) {
          ++mine.errors;
          continue;
        }
        if (batch > 1) {
          for (const service::BatchEstimateItem& item : response->batch) {
            item.status.ok() ? ++mine.ok : ++mine.errors;
          }
        } else {
          ++mine.ok;
        }
        mine.latencies_micros.push_back(micros);
      }
      if (fds.empty()) break;
    }
    for (const int fd : fds) ::close(fd);
  };
  std::vector<std::thread> pool;
  for (size_t tid = 1; tid < static_cast<size_t>(client_threads); ++tid) {
    pool.emplace_back(client, tid);
  }
  client(0);
  for (std::thread& t : pool) t.join();

  ScalingResult total;
  total.seconds = go ? SecondsSince(t0) : 0;
  std::vector<double> merged;
  for (PerThread& mine : per_thread) {
    total.ok += mine.ok;
    total.errors += mine.errors;
    merged.insert(merged.end(), mine.latencies_micros.begin(),
                  mine.latencies_micros.end());
  }
  if (!merged.empty()) {
    auto percentile = [&](double q) {
      const size_t k = std::min(
          merged.size() - 1,
          static_cast<size_t>(q * static_cast<double>(merged.size())));
      std::nth_element(merged.begin(), merged.begin() + k, merged.end());
      return merged[k];
    };
    total.p50_micros = percentile(0.50);
    total.p99_micros = percentile(0.99);
  }
  server.Stop();
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const int instances = bench::InstancesFromArgs(argc, argv, 2);
  const std::string dataset = argc > 2 ? argv[2] : "epinions_like";

  auto data = bench::MakeDatasetWorkload(dataset, "acyclic", instances, 1);
  std::printf("dataset %s: %u vertices, %llu edges, %u labels; %zu "
              "workload queries\n\n",
              dataset.c_str(), data.graph.num_vertices(),
              static_cast<unsigned long long>(data.graph.num_edges()),
              data.graph.num_labels(), data.workload.size());

  // Request lines exactly as a replayed production log would send them.
  std::vector<std::string> lines;
  {
    std::ostringstream text;
    if (!query::WriteWorkloadText(data.workload, text).ok()) return 1;
    std::istringstream in(text.str());
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') lines.push_back(line);
    }
  }

  service::ServiceOptions options;
  options.estimators = {"max-hop-max", "all-hops-avg", "molp", "cbs", "cs"};
  options.compact_trigger_ops = 0;
  options.prewarm_workload = data.workload;

  // ---- Gate 1: loopback throughput scales with worker threads ----
  bool scaling_pass = true;
  bool scaling_enforced = true;
  {
    auto service = service::EstimationService::Create(
        graph::Graph(data.graph), options);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    // Warm every query class (CEG builds, lazy stats) so both
    // measurements run the steady serving state.
    for (const std::string& line : lines) {
      (void)(*service)->EstimateLine(line);
    }

    const unsigned hw = std::thread::hardware_concurrency();
    const TcpRunResult one =
        MeasureTcpThroughput(**service, 1, 8, lines, 2.0);
    const TcpRunResult eight =
        MeasureTcpThroughput(**service, 8, 8, lines, 2.0);
    const double speedup = one.rps() > 0 ? eight.rps() / one.rps() : 0;

    util::TablePrinter table(
        {"workers", "clients", "requests", "errors", "req/s"});
    table.AddRow({"1", "8", std::to_string(one.ok),
                  std::to_string(one.errors),
                  util::TablePrinter::Num(one.rps())});
    table.AddRow({"8", "8", std::to_string(eight.ok),
                  std::to_string(eight.errors),
                  util::TablePrinter::Num(eight.rps())});
    table.Print(std::cout);

    const size_t errors = one.errors + eight.errors;
    double required = 0;
    if (hw >= 8) {
      required = 3.0;
    } else if (hw >= 2) {
      required = std::min(3.0, 0.6 * static_cast<double>(hw));
    } else {
      scaling_enforced = false;
    }
    if (scaling_enforced) {
      scaling_pass = errors == 0 && speedup >= required;
      std::printf("\n[%s] 1->8 worker speedup %.2fx (>= %.2fx required on "
                  "%u hardware threads), %zu transport errors\n",
                  scaling_pass ? "PASS" : "FAIL", speedup, required, hw,
                  errors);
    } else {
      scaling_pass = errors == 0;
      std::printf("\n[%s] single hardware thread: parallel-speedup gate "
                  "SKIPped (measured %.2fx), error-free bar %s "
                  "(%zu transport errors)\n",
                  scaling_pass ? "PASS" : "FAIL", speedup,
                  scaling_pass ? "met" : "missed", errors);
    }
  }

  // ---- Gate 2: swap under sustained load drops and mixes nothing ----
  bool swap_pass = false;
  {
    auto service = service::EstimationService::Create(
        graph::Graph(data.graph), options);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    for (const std::string& line : lines) {
      (void)(*service)->EstimateLine(line);
    }

    std::atomic<size_t> swap_failures{0};
    std::thread maintainer([&] {
      uint64_t seed = 7000;
      for (int swap = 0; swap < 6; ++swap) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        const auto state = (*service)->AcquireState();
        (*service)->SubmitDeltas(dynamic::RandomEdgeBatch(
            state->engine->context().graph(), 100, seed++));
        auto flushed = (*service)->FlushDeltas();
        if (!flushed.ok()) ++swap_failures;
      }
    });

    harness::ServiceDriverOptions driver;
    driver.num_threads = 8;
    driver.duration_seconds = 2.0;
    driver.check_consistency = true;
    const harness::ServiceRunResult result =
        harness::DriveServiceWorkload(**service, data.workload, driver);
    maintainer.join();

    std::printf("\nswap under load: %zu requests over %.2fs (%.0f req/s), "
                "%zu epochs observed, mean latency %.0f us\n",
                result.requests, result.seconds,
                result.requests_per_second(),
                result.responses_per_epoch.size(),
                result.mean_latency_micros);
    swap_pass = result.requests > 0 && result.errors == 0 &&
                result.inconsistent_responses == 0 &&
                result.version_regressions == 0 &&
                swap_failures.load() == 0 &&
                result.responses_per_epoch.size() > 1;
    std::printf("[%s] zero dropped (%zu errors, %zu rejected), zero "
                "mixed-epoch (%zu inconsistent, %zu regressions), swaps "
                "landed under load (%zu epochs, %zu swap failures)\n",
                swap_pass ? "PASS" : "FAIL", result.errors, result.rejected,
                result.inconsistent_responses, result.version_regressions,
                result.responses_per_epoch.size(), swap_failures.load());
  }

  // ---- Gate 3: event loop holds throughput as connections scale ----
  bool conn_pass = true;
  {
    // The fd budget is the constraint at 1024 connections (client + server
    // end live in this one process): raise the soft limit to the hard
    // limit and SKIP any level that still does not fit.
    rlimit nofile{};
    if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
        nofile.rlim_cur < nofile.rlim_max) {
      nofile.rlim_cur = nofile.rlim_max;
      (void)::setrlimit(RLIMIT_NOFILE, &nofile);
      (void)::getrlimit(RLIMIT_NOFILE, &nofile);
    }

    auto service = service::EstimationService::Create(
        graph::Graph(data.graph), options);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    for (const std::string& line : lines) {
      (void)(*service)->EstimateLine(line);
    }

    const double duration = 1.5;
    // The reference row: as many connections as workers, one client
    // thread each. The scaled levels must hold its throughput while
    // multiplexing 8x-128x as many connections onto the same 8
    // estimation workers.
    const ScalingResult reference =
        MeasureConnScaling(**service, 8, 8, 8, 1, lines, duration);

    util::TablePrinter table({"frames", "conns", "requests", "errors",
                              "req/s", "p50 us", "p99 us"});
    table.AddRow({"single", "8", std::to_string(reference.ok),
                  std::to_string(reference.errors),
                  util::TablePrinter::Num(reference.rps()),
                  util::TablePrinter::Num(reference.p50_micros),
                  util::TablePrinter::Num(reference.p99_micros)});

    size_t level_errors = reference.errors;
    std::vector<double> level_rps;
    std::vector<std::string> level_notes;
    for (const int conns : {64, 256, 1024}) {
      // Two fds per connection in-process, plus headroom for the
      // service, epoll, and stdio.
      const rlim_t budget = static_cast<rlim_t>(conns) * 2 + 64;
      if (budget > nofile.rlim_cur) {
        level_notes.push_back("SKIP " + std::to_string(conns) +
                              " conns: needs " + std::to_string(budget) +
                              " fds, RLIMIT_NOFILE is " +
                              std::to_string(nofile.rlim_cur));
        continue;
      }
      const ScalingResult level =
          MeasureConnScaling(**service, 8, conns, 16, 1, lines, duration);
      table.AddRow({"single", std::to_string(conns),
                    std::to_string(level.ok),
                    std::to_string(level.errors),
                    util::TablePrinter::Num(level.rps()),
                    util::TablePrinter::Num(level.p50_micros),
                    util::TablePrinter::Num(level.p99_micros)});
      level_errors += level.errors;
      level_rps.push_back(level.rps());
    }
    // Reference only: the same load shape with wire-v3 batch frames of
    // 16 lines — the per-frame overhead amortization batching buys.
    const ScalingResult batched =
        MeasureConnScaling(**service, 8, 64, 16, 16, lines, duration);
    table.AddRow({"batch 16", "64", std::to_string(batched.ok),
                  std::to_string(batched.errors),
                  util::TablePrinter::Num(batched.rps()),
                  util::TablePrinter::Num(batched.p50_micros),
                  util::TablePrinter::Num(batched.p99_micros)});
    std::printf("\n");
    table.Print(std::cout);
    for (const std::string& note : level_notes) {
      std::printf("%s\n", note.c_str());
    }
    // The throughput bar follows gate 1's hardware scaling: on >= 8
    // hardware threads every scaled level must match the reference row
    // outright; on smaller machines multiplexing 16 client threads + the
    // I/O thread over too few cores measures the scheduler, not the
    // dispatcher, so the bar relaxes (half the reference) and on a
    // single core only the error-free bar is enforced.
    const unsigned hw = std::thread::hardware_concurrency();
    double required_fraction = 0;
    if (hw >= 8) {
      required_fraction = 1.0;
    } else if (hw >= 2) {
      required_fraction = 0.5;
    }
    conn_pass = level_errors == 0;
    for (const double rps : level_rps) {
      if (rps < required_fraction * reference.rps()) conn_pass = false;
    }
    if (required_fraction > 0) {
      std::printf("[%s] event loop at 64/256/1024 connections: error-free "
                  "and >= %.0f%% of the 8-connection reference "
                  "%.0f req/s on %u hardware threads (%zu errors total)\n",
                  conn_pass ? "PASS" : "FAIL", 100 * required_fraction,
                  reference.rps(), hw, level_errors);
    } else {
      std::printf("[%s] single hardware thread: connection-scaling "
                  "throughput gate SKIPped, error-free bar %s "
                  "(%zu errors total; reference %.0f req/s)\n",
                  conn_pass ? "PASS" : "FAIL",
                  conn_pass ? "met" : "missed", level_errors,
                  reference.rps());
    }
  }

  // ---- Gate 4: instrumentation overhead stays under 5% ----
  bool overhead_pass = false;
  {
    // The full observability stack the gate prices: the always-on
    // scorecards already record on this path (every workload line
    // carries a truth), and a live journal is attached so its Emit
    // path is armed too. /dev/null keeps the drain thread real —
    // serialization and write() happen — without leaving an artifact.
    obs::Journal journal;
    service::ServiceOptions instrumented = options;
    if (journal.Start("/dev/null").ok()) {
      instrumented.journal = &journal;
    }
    auto service = service::EstimationService::Create(
        graph::Graph(data.graph), instrumented);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    for (const std::string& line : lines) {
      (void)(*service)->EstimateLine(line);
    }

    // Best-of-3 per mode, interleaved so thermal / scheduler drift hits
    // both modes alike. SetMetricsEnabled(false) is exactly what
    // CEGRAPH_METRICS=off sets at startup.
    double best_on = 0;
    double best_off = 0;
    size_t overhead_errors = 0;
    for (int round = 0; round < 3; ++round) {
      obs::SetMetricsEnabled(true);
      const TcpRunResult on =
          MeasureTcpThroughput(**service, 4, 8, lines, 1.0);
      obs::SetMetricsEnabled(false);
      const TcpRunResult off =
          MeasureTcpThroughput(**service, 4, 8, lines, 1.0);
      best_on = std::max(best_on, on.rps());
      best_off = std::max(best_off, off.rps());
      overhead_errors += on.errors + off.errors;
    }
    obs::SetMetricsEnabled(true);

    const double ratio = best_off > 0 ? best_on / best_off : 0;
    overhead_pass =
        overhead_errors == 0 && best_off > 0 && ratio >= 0.95;
    std::printf("\nmetrics on %.0f req/s vs off %.0f req/s "
                "(best of 3 each; scorecards live, journal attached, "
                "%llu events)\n",
                best_on, best_off,
                static_cast<unsigned long long>(journal.emitted()));
    std::printf("[%s] instrumentation overhead: enabled/disabled ratio "
                "%.3f (>= 0.95 required), %zu transport errors\n",
                overhead_pass ? "PASS" : "FAIL", ratio, overhead_errors);
  }

  return scaling_pass && swap_pass && conn_pass && overhead_pass ? 0 : 1;
}
