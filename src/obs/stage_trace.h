#pragma once
// Per-request pipeline stage timing.
//
// The server's worker installs a StageTrace into a thread-local slot for
// the duration of one request; layers below (admission, serving-state
// acquisition, the estimator loop) record into it through Current()
// without any plumbing through their signatures. When nothing is
// installed — the embedded in-process service, or a server with metrics
// off (CEGRAPH_METRICS=off) — every record call is a null-check no-op.
//
// Stage semantics (all microseconds):
//   kQueueWait    complete frame parsed  -> worker picked it up
//   kParse        request frame decode
//   kAdmission    time spent inside the admission decision
//   kAcquireState atomic serving-state acquire (incl. suite resolve)
//   kEstimate     the per-estimator estimation loop, summed
//   kEncode       response frame encode
//   kWrite        worker handed the response off -> I/O thread queued
//                 the bytes on the connection (scheduling latency; the
//                 socket write itself is asynchronous)

#include <array>
#include <cstddef>
#include <string>

namespace cegraph::obs {

enum class Stage : size_t {
  kQueueWait = 0,
  kParse,
  kAdmission,
  kAcquireState,
  kEstimate,
  kEncode,
  kWrite,
};
inline constexpr size_t kStageCount = 7;

const char* StageName(Stage stage);

class StageTrace {
 public:
  /// The trace installed on this thread, or nullptr.
  static StageTrace* Current();

  /// RAII installer: puts `trace` into the thread-local slot, restoring
  /// the previous occupant (normally nullptr) on destruction.
  class Scope {
   public:
    explicit Scope(StageTrace* trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageTrace* previous_;
  };

  /// The client-supplied end-to-end request id (wire v5), stamped by the
  /// server's worker after decode; 0 = the request carried none. Carried
  /// here so the slow-request log and journal can correlate one request
  /// across client, server and log lines without extra plumbing.
  uint64_t request_id = 0;

  void Add(Stage stage, double micros) {
    micros_[static_cast<size_t>(stage)] += micros;
  }
  double micros(Stage stage) const {
    return micros_[static_cast<size_t>(stage)];
  }

  /// One-line rendering for the slow-request log:
  /// "queue_wait=12.3us parse=0.4us ...".
  std::string Format() const;

 private:
  std::array<double, kStageCount> micros_{};
};

}  // namespace cegraph::obs
