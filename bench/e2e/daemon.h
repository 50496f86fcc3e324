#ifndef CEGRAPH_BENCH_E2E_DAEMON_H_
#define CEGRAPH_BENCH_E2E_DAEMON_H_

// Child processes of the benchmark: the cegraph_serve daemon under test
// and the cegraph_stats runs that generate its inputs. Every child is
// reaped before its owner returns, and dies with the benchmark.

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace cegraph::e2e {

/// Runs `argv` to completion with stdout and stderr appended to `log`.
util::Status RunTool(const std::vector<std::string>& argv,
                     const std::string& log);

/// One running cegraph_serve. Start returns once the daemon has printed
/// its `listening on` line; the time from spawn to that line is the
/// daemon's set-up time.
class Daemon {
 public:
  /// `argv[0]` is the binary. The daemon's stderr is appended to `log`.
  static util::StatusOr<std::unique_ptr<Daemon>> Start(
      const std::vector<std::string>& argv, const std::string& log);

  /// Kills and reaps a daemon that was not shut down.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// The Prometheus exporter's port; -1 when started without one.
  int metrics_port() const { return metrics_port_; }
  double setup_seconds() const { return setup_seconds_; }

  /// The daemon's peak resident set so far (VmHWM) in MiB; 0 when
  /// unreadable.
  double PeakRssMib() const;

  /// Sends a kShutdown frame and waits for the daemon to drain and exit 0.
  util::Status Shutdown();

 private:
  Daemon() = default;
  /// Reads daemon stdout up to EOF (the drain summary), bounded in time.
  void DrainOutput();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = -1;
  int metrics_port_ = -1;
  double setup_seconds_ = 0;
};

}  // namespace cegraph::e2e

#endif  // CEGRAPH_BENCH_E2E_DAEMON_H_
