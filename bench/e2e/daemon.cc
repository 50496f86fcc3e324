#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <thread>

#include "service/wire.h"

namespace cegraph::e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a daemon may take to start listening or to exit.
constexpr double kStartTimeoutSeconds = 60;
constexpr double kExitTimeoutSeconds = 30;

/// Forks and execs `argv` with stdout on `out_fd` and stderr on `err_fd`.
/// The child is killed if the benchmark dies first.
util::StatusOr<pid_t> Spawn(const std::vector<std::string>& argv, int out_fd,
                            int err_fd) {
  // Built before fork: the child may only make async-signal-safe calls.
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return util::InternalError("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (::dup2(out_fd, STDOUT_FILENO) < 0 ||
        ::dup2(err_fd, STDERR_FILENO) < 0) {
      ::_exit(127);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

int OpenLog(const std::string& log) {
  return ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                0644);
}

/// Waits up to `timeout` seconds for `pid`, then kills it. Returns the
/// wait status, or -1 when the child had to be killed.
int Reap(pid_t pid, double timeout) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout);
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return status;
    if (done < 0 && errno != EINTR) return -1;
    if (Clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// The port after `prefix` in `line` ("listening on 127.0.0.1:PORT").
int PortAfter(std::string_view line, std::string_view prefix) {
  const size_t at = line.find(prefix);
  if (at == std::string_view::npos) return -1;
  const size_t colon = line.rfind(':');
  if (colon == std::string_view::npos || colon < at) return -1;
  return std::atoi(std::string(line.substr(colon + 1)).c_str());
}

}  // namespace

util::Status RunTool(const std::vector<std::string>& argv,
                     const std::string& log) {
  const int log_fd = OpenLog(log);
  if (log_fd < 0) return util::InternalError("cannot open " + log);
  auto pid = Spawn(argv, log_fd, log_fd);
  ::close(log_fd);
  if (!pid.ok()) return pid.status();
  int status = 0;
  while (::waitpid(*pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return util::InternalError(argv[0] + " failed; see " + log);
  }
  return util::Status::OK();
}

util::StatusOr<std::unique_ptr<Daemon>> Daemon::Start(
    const std::vector<std::string>& argv, const std::string& log) {
  const int log_fd = OpenLog(log);
  if (log_fd < 0) return util::InternalError("cannot open " + log);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    ::close(log_fd);
    return util::InternalError("pipe failed");
  }
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->out_fd_ = pipe_fds[0];
  const auto t0 = Clock::now();
  auto pid = Spawn(argv, pipe_fds[1], log_fd);
  ::close(pipe_fds[1]);
  ::close(log_fd);
  if (!pid.ok()) return pid.status();
  daemon->pid_ = *pid;

  // Scan stdout line by line for the exporter and listener lines.
  const auto deadline =
      t0 + std::chrono::duration<double>(kStartTimeoutSeconds);
  std::string buffer;
  while (daemon->port_ < 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{daemon->out_fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) == 0) {
      return util::InternalError("daemon did not start listening; see " +
                                 log);
    }
    char chunk[4096];
    const ssize_t n = ::read(daemon->out_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return util::InternalError("daemon exited before listening; see " +
                                 log);
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string_view line(buffer.data(), newline);
      if (const int port = PortAfter(line, "metrics on "); port >= 0) {
        daemon->metrics_port_ = port;
      }
      if (const int port = PortAfter(line, "listening on "); port >= 0) {
        daemon->setup_seconds_ =
            std::chrono::duration<double>(Clock::now() - t0).count();
        daemon->port_ = port;
      }
      buffer.erase(0, newline + 1);
    }
  }
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Reap(pid_, kExitTimeoutSeconds);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

void Daemon::DrainOutput() {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(kExitTimeoutSeconds);
  char chunk[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) == 0) {
      return;
    }
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n == 0 || (n < 0 && errno != EINTR)) return;
  }
}

double Daemon::PeakRssMib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

util::Status Daemon::Shutdown() {
  auto fd = service::wire::DialTcp("127.0.0.1", port_);
  if (!fd.ok()) return fd.status();
  service::wire::Request request;
  request.type = service::wire::MessageType::kShutdown;
  auto response = service::wire::RoundTrip(*fd, request);
  ::close(*fd);
  if (!response.ok()) return response.status();
  if (!response->status.ok()) return response->status;
  DrainOutput();
  const int status = Reap(pid_, kExitTimeoutSeconds);
  pid_ = -1;
  if (status < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return util::InternalError("daemon did not exit cleanly");
  }
  return util::Status::OK();
}

}  // namespace cegraph::e2e
