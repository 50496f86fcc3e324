#ifndef CEGRAPH_BENCH_E2E_LOADGEN_H_
#define CEGRAPH_BENCH_E2E_LOADGEN_H_

// The load generator: closed loops over nproc connections, the open loop
// of the churn workload, and the kApplyDeltas probes. Every answered line
// can be checked against the in-process reference and scored for
// q-error.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/request.h"
#include "workload.h"

namespace cegraph::e2e {

/// What the load generator counted and measured over one phase.
struct Tally {
  uint64_t frames = 0;      ///< estimate frames sent
  uint64_t lines = 0;       ///< estimate lines sent
  uint64_t answered = 0;    ///< lines answered OK
  uint64_t failed = 0;      ///< lines lost to transport errors or error replies
  uint64_t refused = 0;     ///< lines refused with RESOURCE_EXHAUSTED
  uint64_t compared = 0;    ///< answered lines checked against the reference
  uint64_t mismatched = 0;  ///< checked lines that differed from it
  uint64_t control = 0;         ///< kApplyDeltas / kSwapSnapshot frames sent
  uint64_t control_failed = 0;  ///< of those, not answered OK
  std::vector<double> frame_micros;  ///< round trip per answered frame
  /// Per scored line, the usable per-estimator q-errors of its latest
  /// answer (`at`: steady-clock seconds of that answer).
  struct Scored {
    double at = 0;
    std::vector<double> qerrors;
  };
  std::unordered_map<size_t, Scored> scored;

  void Merge(const Tally& other);
  /// One sample per (scored line, estimator).
  std::vector<double> QErrors() const;
  uint64_t attempted() const { return lines + control; }
  uint64_t failures() const {
    return failed + refused + mismatched + control_failed;
  }
};

/// Decides, per answered line, whether it is checked against the
/// reference.
using CheckRule =
    std::function<bool(size_t line, const service::EstimateResponse&)>;

/// What happens to each answered line.
struct LineSink {
  const Inputs* inputs = nullptr;
  const Reference* reference = nullptr;
  CheckRule check;     ///< empty: nothing is checked
  bool score = false;  ///< keep each line's latest q-errors
};

struct ClosedLoop {
  int port = -1;
  int connections = 1;
  bool batch = false;  ///< v3 frames of kBatchLines lines; else v1 frames
  /// > 0: cycle over the pool for this long. 0: send `lines` once, in
  /// order, cut into frames.
  double seconds = 0;
  std::vector<size_t> lines;
};

/// Runs the loop with one connection per thread, the calling thread
/// included. `elapsed` receives the wall time of the whole loop.
Tally RunClosedLoop(const ClosedLoop& loop, const LineSink& sink,
                    double* elapsed);

/// Line indexes of frame `frame` when frames of `lines_per_frame` cycle
/// over a pool of `pool_size` lines.
std::vector<size_t> FrameLines(uint64_t frame, int lines_per_frame,
                               size_t pool_size);

/// The caller sets every field; a swap interval of 0 means no swaps.
struct OpenLoop {
  int port = -1;
  uint64_t first_frame = 0;  ///< frames cycle over the pool from this one
  double rate_per_second = 0;
  int connections = 0;
  double seconds = 0;
  double feed_every_seconds = 0;
  double swap_every_seconds = 0;
  const std::vector<std::string>* feeds = nullptr;
  std::string swap_path;  ///< server-local snapshot path
};

struct OpenLoopResult {
  Tally tally;
  double elapsed = 0;  ///< seconds from the first send to the last answer
  std::vector<double> late_micros;  ///< actual minus scheduled send
  std::vector<double> fold_millis;  ///< kApplyDeltas round trips
  std::vector<double> swap_millis;  ///< kSwapSnapshot round trips
};

/// v1 frames at a fixed rate, alternating over `connections` pipelined
/// connections, each timed from its scheduled send; beside them, on one
/// more connection, a feed every feed_every_seconds and a swap back to
/// swap_path every swap_every_seconds. One thread drives it all.
OpenLoopResult RunOpenLoop(const OpenLoop& loop, const LineSink& sink);

/// Applies each feed with a kApplyDeltas frame, one after another, and
/// returns the round trips in milliseconds.
std::vector<double> ProbeFolds(int port,
                               const std::vector<std::string>& feeds,
                               Tally* tally);

}  // namespace cegraph::e2e

#endif  // CEGRAPH_BENCH_E2E_LOADGEN_H_
