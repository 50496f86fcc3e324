#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>

#include "harness/qerror.h"
#include "service/wire.h"

namespace cegraph::e2e {

namespace {

using Clock = std::chrono::steady_clock;
namespace wire = service::wire;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Scores and checks one answered line.
void HandleLine(const LineSink& sink, size_t line,
                const service::EstimateResponse& response, Tally& tally) {
  ++tally.answered;
  if (sink.check && sink.check(line, response)) {
    ++tally.compared;
    if (!MatchesReference((*sink.reference)[line], response)) {
      ++tally.mismatched;
    }
  }
  if (sink.score && response.has_truth) {
    Tally::Scored& scored = tally.scored[line];
    scored.at = std::chrono::duration<double>(
                    Clock::now().time_since_epoch())
                    .count();
    scored.qerrors.clear();
    for (const service::EstimatorResult& result : response.results) {
      if (result.ok && harness::UsableQError(result.estimate, response.truth)) {
        scored.qerrors.push_back(
            harness::QError(result.estimate, response.truth));
      }
    }
  }
}

/// Accounts one estimate or batch response for the frame of `lines`.
void HandleResponse(const LineSink& sink, const std::vector<size_t>& lines,
                    const util::StatusOr<wire::Response>& response,
                    Tally& tally) {
  if (!response.ok()) {
    tally.failed += lines.size();
    return;
  }
  if (!response->status.ok()) {
    if (response->status.code() == util::StatusCode::kResourceExhausted) {
      tally.refused += lines.size();
    } else {
      tally.failed += lines.size();
    }
    return;
  }
  if (response->type == wire::MessageType::kEstimate) {
    HandleLine(sink, lines[0], response->estimate, tally);
    return;
  }
  if (response->batch.size() != lines.size()) {
    tally.failed += lines.size();
    return;
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (response->batch[i].status.ok()) {
      HandleLine(sink, lines[i], response->batch[i].estimate, tally);
    } else {
      ++tally.failed;
    }
  }
}

std::string EncodeFrame(const Inputs& inputs,
                        const std::vector<size_t>& lines, bool batch) {
  wire::Request request;
  if (batch) {
    request.type = wire::MessageType::kBatchEstimate;
    for (size_t line : lines) request.lines.push_back(inputs.pool[line].text);
  } else {
    request.type = wire::MessageType::kEstimate;
    request.text = inputs.pool[lines[0]].text;
  }
  return wire::EncodeRequest(request);
}

/// One connection of a closed loop: takes frame numbers from `next` until
/// the loop is done.
void ClosedLoopConnection(const ClosedLoop& loop, const LineSink& sink,
                          std::atomic<uint64_t>& next,
                          Clock::time_point deadline, Tally& tally) {
  const Inputs& inputs = *sink.inputs;
  const int per_frame = loop.batch ? kBatchLines : 1;
  auto fd = wire::DialTcp("127.0.0.1", loop.port);
  for (;;) {
    std::vector<size_t> lines;
    if (loop.seconds > 0) {
      if (Clock::now() >= deadline) break;
      lines = FrameLines(next.fetch_add(1), per_frame, inputs.pool.size());
    } else {
      const size_t first = next.fetch_add(1) * per_frame;
      if (first >= loop.lines.size()) break;
      const size_t last = std::min(loop.lines.size(), first + per_frame);
      lines.assign(loop.lines.begin() + first, loop.lines.begin() + last);
    }
    ++tally.frames;
    tally.lines += lines.size();
    if (!fd.ok()) {
      tally.failed += lines.size();
      fd = wire::DialTcp("127.0.0.1", loop.port);
      continue;
    }
    const std::string payload = EncodeFrame(inputs, lines, loop.batch);
    const auto t0 = Clock::now();
    const util::Status written = wire::WriteFrame(*fd, payload);
    util::StatusOr<std::string> reply =
        written.ok() ? wire::ReadFrame(*fd)
                     : util::StatusOr<std::string>(written);
    const auto t1 = Clock::now();
    if (!reply.ok()) {
      tally.failed += lines.size();
      ::close(*fd);
      fd = wire::DialTcp("127.0.0.1", loop.port);
      continue;
    }
    tally.frame_micros.push_back(MicrosBetween(t0, t1));
    HandleResponse(sink, lines, wire::DecodeResponse(*reply), tally);
  }
  if (fd.ok()) ::close(*fd);
}

/// A pipelined connection of the open loop: bytes read so far and the
/// frames awaiting answers, oldest first.
struct Pipe {
  int fd = -1;
  std::string in;
  struct Pending {
    Clock::time_point timed_from;  ///< scheduled (estimates) or sent
    std::vector<size_t> lines;     ///< estimate frames only
    bool swap = false;             ///< control frames: swap, else feed
  };
  std::deque<Pending> pending;

  /// Reads what is available; false on EOF or error.
  bool Fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n > 0) {
        in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }
  /// Pops one complete response payload from `in`, if any.
  bool Next(std::string* payload) {
    if (in.size() < 4) return false;
    size_t length = 0;  // u32, little-endian
    for (int i = 3; i >= 0; --i) {
      length = length << 8 | static_cast<unsigned char>(in[i]);
    }
    if (in.size() < 4 + length) return false;
    payload->assign(in, 4, length);
    in.erase(0, 4 + length);
    return true;
  }
};

Clock::time_point After(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

}  // namespace

void Tally::Merge(const Tally& other) {
  frames += other.frames;
  lines += other.lines;
  answered += other.answered;
  failed += other.failed;
  refused += other.refused;
  compared += other.compared;
  mismatched += other.mismatched;
  control += other.control;
  control_failed += other.control_failed;
  frame_micros.insert(frame_micros.end(), other.frame_micros.begin(),
                      other.frame_micros.end());
  for (const auto& [line, theirs] : other.scored) {
    Scored& mine = scored[line];
    if (theirs.at >= mine.at) mine = theirs;
  }
}

std::vector<double> Tally::QErrors() const {
  std::vector<double> out;
  for (const auto& [line, latest] : scored) {
    out.insert(out.end(), latest.qerrors.begin(), latest.qerrors.end());
  }
  return out;
}

std::vector<size_t> FrameLines(uint64_t frame, int lines_per_frame,
                               size_t pool_size) {
  std::vector<size_t> lines;
  for (int j = 0; j < lines_per_frame; ++j) {
    lines.push_back(static_cast<size_t>(
        (frame * static_cast<uint64_t>(lines_per_frame) + j) % pool_size));
  }
  return lines;
}

Tally RunClosedLoop(const ClosedLoop& loop, const LineSink& sink,
                    double* elapsed) {
  std::atomic<uint64_t> next{0};
  std::vector<Tally> tallies(static_cast<size_t>(loop.connections));
  const auto t0 = Clock::now();
  const auto deadline = After(t0, loop.seconds);
  std::vector<std::thread> threads;
  for (size_t c = 1; c < tallies.size(); ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopConnection(loop, sink, next, deadline, tallies[c]);
    });
  }
  ClosedLoopConnection(loop, sink, next, deadline, tallies[0]);
  for (std::thread& thread : threads) thread.join();
  *elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  Tally total;
  for (const Tally& tally : tallies) total.Merge(tally);
  return total;
}

OpenLoopResult RunOpenLoop(const OpenLoop& loop, const LineSink& sink) {
  OpenLoopResult result;
  Tally& tally = result.tally;
  const Inputs& inputs = *sink.inputs;

  // pipes[0] carries the control frames, the rest the estimate frames.
  std::vector<Pipe> pipes(static_cast<size_t>(loop.connections) + 1);
  for (Pipe& pipe : pipes) {
    auto fd = wire::DialTcp("127.0.0.1", loop.port);
    if (fd.ok()) pipe.fd = *fd;
  }
  Pipe& control = pipes[0];

  // Control frames due over the run, one in flight at a time: feed k at
  // (k + 1) x feed_every, a swap at every multiple of swap_every.
  struct ControlOp {
    double at_seconds;
    bool swap;
    size_t feed;
  };
  std::vector<ControlOp> ops;
  for (size_t k = 0; k < loop.feeds->size(); ++k) {
    const double at = static_cast<double>(k + 1) * loop.feed_every_seconds;
    if (at < loop.seconds) ops.push_back({at, false, k});
  }
  for (int m = 1; loop.swap_every_seconds > 0 &&
                  m * loop.swap_every_seconds < loop.seconds;
       ++m) {
    ops.push_back({m * loop.swap_every_seconds, true, 0});
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ControlOp& a, const ControlOp& b) {
                     return a.at_seconds < b.at_seconds;
                   });
  size_t next_op = 0;

  const auto t0 = Clock::now();
  const auto end = After(t0, loop.seconds);
  const auto drain_deadline = After(end, 30);
  const double period = 1.0 / loop.rate_per_second;
  uint64_t next_frame = 0;
  auto last_answer = t0;
  auto due = [&](uint64_t frame) {
    return After(t0, period * static_cast<double>(frame));
  };

  for (;;) {
    // Send every estimate frame now due, round-robin over the data pipes.
    while (due(next_frame) < end && due(next_frame) <= Clock::now()) {
      Pipe& pipe = pipes[1 + next_frame % (pipes.size() - 1)];
      std::vector<size_t> lines =
          FrameLines(loop.first_frame + next_frame, 1, inputs.pool.size());
      const auto scheduled = due(next_frame++);
      ++tally.frames;
      ++tally.lines;
      if (pipe.fd < 0 ||
          !wire::WriteFrame(pipe.fd, EncodeFrame(inputs, lines, false))
               .ok()) {
        ++tally.failed;
        continue;
      }
      result.late_micros.push_back(MicrosBetween(scheduled, Clock::now()));
      pipe.pending.push_back({scheduled, std::move(lines), false});
    }
    // Send the next control frame once due and the last one answered.
    if (control.pending.empty() && next_op < ops.size() &&
        After(t0, ops[next_op].at_seconds) <= Clock::now()) {
      const ControlOp& op = ops[next_op++];
      wire::Request request;
      request.type = op.swap ? wire::MessageType::kSwapSnapshot
                             : wire::MessageType::kApplyDeltas;
      request.text = op.swap ? loop.swap_path : (*loop.feeds)[op.feed];
      ++tally.control;
      const auto sent = Clock::now();
      if (control.fd < 0 ||
          !wire::WriteFrame(control.fd, wire::EncodeRequest(request)).ok()) {
        ++tally.control_failed;
      } else {
        control.pending.push_back({sent, {}, op.swap});
      }
    }

    bool waiting = next_op < ops.size();
    for (const Pipe& pipe : pipes) waiting = waiting || !pipe.pending.empty();
    const auto now = Clock::now();
    if ((now >= end && !waiting) || now >= drain_deadline) break;

    // Sleep until the next frame is due, the run ends or a reply arrives.
    auto wake = due(next_frame) < end ? due(next_frame)
                : now < end           ? end
                                      : drain_deadline;
    if (control.pending.empty() && next_op < ops.size()) {
      wake = std::min(wake, After(t0, ops[next_op].at_seconds));
    }
    std::vector<pollfd> fds;
    std::vector<Pipe*> polled;
    for (Pipe& pipe : pipes) {
      if (pipe.fd < 0) continue;
      fds.push_back({pipe.fd, POLLIN, 0});
      polled.push_back(&pipe);
    }
    const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::max(Clock::duration::zero(), wake - now))
                             .count();
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;

    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Pipe& pipe = *polled[i];
      const bool open = pipe.Fill();
      std::string payload;
      while (!pipe.pending.empty() && pipe.Next(&payload)) {
        const Pipe::Pending frame = std::move(pipe.pending.front());
        pipe.pending.pop_front();
        const auto answered = Clock::now();
        const double micros = MicrosBetween(frame.timed_from, answered);
        auto response = wire::DecodeResponse(payload);
        if (&pipe != &control) {
          last_answer = answered;
          tally.frame_micros.push_back(micros);
          HandleResponse(sink, frame.lines, response, tally);
        } else if (!response.ok() || !response->status.ok()) {
          ++tally.control_failed;
        } else {
          (frame.swap ? result.swap_millis : result.fold_millis)
              .push_back(micros / 1e3);
        }
      }
      if (!open) {
        ::close(pipe.fd);
        pipe.fd = -1;
      }
    }
  }

  result.elapsed = std::chrono::duration<double>(last_answer - t0).count();
  // Whatever is unanswered by now is lost.
  tally.control_failed += control.pending.size() + (ops.size() - next_op);
  for (Pipe& pipe : pipes) {
    if (&pipe != &control) {
      for (const Pipe::Pending& frame : pipe.pending) {
        tally.failed += frame.lines.size();
      }
    }
    if (pipe.fd >= 0) ::close(pipe.fd);
  }
  return result;
}

std::vector<double> ProbeFolds(int port,
                               const std::vector<std::string>& feeds,
                               Tally* tally) {
  std::vector<double> millis;
  auto fd = wire::DialTcp("127.0.0.1", port);
  for (const std::string& feed : feeds) {
    ++tally->control;
    if (!fd.ok()) {
      ++tally->control_failed;
      continue;
    }
    wire::Request request;
    request.type = wire::MessageType::kApplyDeltas;
    request.text = feed;
    const auto t0 = Clock::now();
    auto response = wire::RoundTrip(*fd, request);
    const auto t1 = Clock::now();
    if (!response.ok() || !response->status.ok()) {
      ++tally->control_failed;
      continue;
    }
    millis.push_back(MicrosBetween(t0, t1) / 1e3);
  }
  if (fd.ok()) ::close(*fd);
  return millis;
}

}  // namespace cegraph::e2e
