// AssignService — the concurrent front door of the serving tier.
//
// One writer (a training loop) publishes immutable ModelSnapshots; many
// reader threads call Assign concurrently. The service
//
//   * holds the current snapshot in a shared_ptr swapped atomically
//     (std::atomic_load/atomic_store), so every request scores against one
//     stable model generation end to end, regardless of publishes racing in;
//   * bounds concurrency with a counting-semaphore admission gate —
//     at most max_concurrency requests score at once; waiters queue up to
//     max_queue_depth deep and are SHED with kUnavailable beyond that (or
//     once their queue_timeout/deadline passes) instead of blocking forever
//     — graceful degradation under overload, backpressure under load;
//   * honors a per-request deadline (AssignRequestOptions) covering queue
//     wait plus scoring, checked cooperatively between batches: a request
//     that runs out of time returns kDeadlineExceeded promptly and its
//     partially scored points are accounted separately;
//   * supports clean teardown: Shutdown() stops admission (queued and new
//     requests get kUnavailable; in-flight requests finish), Drain() waits
//     for quiescence;
//   * splits each request into batches of at most max_batch_points rows and
//     scores them through the core insertion scorer (core::ScoreRows,
//     core/assign.h) on the snapshot's model, with a per-thread reusable
//     scratch (allocation-free steady state);
//   * counts everything — requests, points, batches, rejected requests,
//     scoring wall time, batch-size shape, publishes, snapshot age — into a
//     ServeMetrics struct (fairkm_cli --serve-bench prints it).
//
// Thread-safe throughout: Publish, Assign and Metrics may be called from any
// threads concurrently. The solver feeding Publish stays single-writer on
// its own thread (see model_snapshot.h).

#ifndef FAIRKM_SERVE_ASSIGN_SERVICE_H_
#define FAIRKM_SERVE_ASSIGN_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "cluster/types.h"
#include "common/status.h"
#include "data/matrix.h"
#include "data/sensitive.h"
#include "serve/model_snapshot.h"

namespace fairkm {
namespace serve {

/// \brief Service knobs.
struct AssignServiceOptions {
  /// Per-request batching granularity: requests are scored in chunks of at
  /// most this many points (metrics count each chunk as one batch).
  size_t max_batch_points = 512;
  /// Maximum requests scoring concurrently; further callers queue at the
  /// admission gate. 0 = number of hardware threads.
  int max_concurrency = 0;
  /// Maximum requests waiting at the gate; arrivals beyond this are shed
  /// immediately with kUnavailable (bounded memory and bounded queueing
  /// delay instead of an unbounded pile-up).
  size_t max_queue_depth = 1024;
};

/// \brief Per-request degradation knobs. Negative fields mean "unbounded".
///
/// Time-unit convention (repo-wide, same as core::RunBudget.max_seconds):
/// every duration in a public option struct is wall-clock seconds as a
/// `double`, named `*_seconds`. Millisecond-flavoured surfaces (the CLI's
/// `--*-ms` flags) convert at parse time; no struct field is ever in ms.
struct AssignRequestOptions {
  /// Total wall-clock budget of the request, INCLUDING queue wait, checked
  /// cooperatively between scoring batches. Exceeding it returns
  /// kDeadlineExceeded (partially scored points are dropped and counted in
  /// ServeMetrics.deadline_partial_points).
  double deadline_seconds = -1.0;
  /// Maximum time the request may sit in the admission queue before being
  /// shed with kUnavailable (retry-later signal, distinct from the
  /// deadline: the work never started).
  double queue_timeout_seconds = -1.0;
};

/// \brief Point-in-time counters of an AssignService.
struct ServeMetrics {
  uint64_t requests = 0;        ///< Completed Assign calls (ok or error).
  uint64_t errors = 0;          ///< Assign calls that returned a non-OK status.
  uint64_t points = 0;          ///< Points scored by successful requests.
  uint64_t batches = 0;         ///< Scoring chunks across all requests.
  double busy_seconds = 0.0;    ///< Wall time spent inside scoring.
  double points_per_second = 0.0;  ///< points / busy_seconds (0 if no work).
  double avg_batch_points = 0.0;   ///< points / batches (0 if no work).
  uint64_t max_batch_points = 0;   ///< Largest chunk scored so far.
  uint64_t peak_in_flight = 0;     ///< Max concurrent requests observed.
  uint64_t snapshots_published = 0;
  /// Seconds since the current snapshot was published (-1 with no model).
  double snapshot_age_seconds = -1.0;

  // --- Degradation counters (all error cases also count in `errors`).
  uint64_t not_ready = 0;          ///< Assign calls before the first Publish.
  uint64_t shed_queue_full = 0;    ///< Shed at arrival: queue at capacity.
  uint64_t shed_queue_timeout = 0; ///< Shed while queued: queue_timeout hit.
  uint64_t deadline_exceeded = 0;  ///< Deadline hit (queued or scoring).
  /// Points already scored by requests that then hit their deadline (the
  /// partial work a kDeadlineExceeded reply threw away).
  uint64_t deadline_partial_points = 0;
  uint64_t queue_depth = 0;        ///< Requests waiting at the gate now.
  uint64_t peak_queue_depth = 0;   ///< Max queue depth observed.
};

/// \brief Bounded-concurrency assignment service over published snapshots.
class AssignService {
 public:
  explicit AssignService(const AssignServiceOptions& options = {});

  /// \brief Atomically swaps in a new model generation. Requests already
  /// scoring keep their snapshot; new requests see this one.
  void Publish(std::shared_ptr<const ModelSnapshot> snapshot);

  /// \brief The currently published model generation (null before the first
  /// Publish).
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// \brief Scores one request against the current snapshot (fairness term
  /// included iff `sensitive` is non-null — same contract as
  /// core::AssignToModel). Queues while max_concurrency requests are already
  /// scoring; `request` bounds how long the call may queue
  /// (kUnavailable past queue_timeout_seconds or when the queue is full at
  /// arrival) and run (kDeadlineExceeded past deadline_seconds, checked
  /// between scoring batches). Before the first Publish every call returns
  /// kUnavailable — a retryable not-ready signal, never a hang.
  Result<cluster::Assignment> Assign(
      const data::Matrix& points,
      const data::SensitiveView* sensitive = nullptr,
      const AssignRequestOptions& request = {});

  /// \brief Stops admission permanently: queued requests wake with
  /// kUnavailable, later Assign and Publish calls are refused/ignored.
  /// In-flight requests finish normally. Idempotent, any thread.
  void Shutdown();

  /// \brief True once Shutdown() has been called.
  bool is_shutdown() const;

  /// \brief Blocks until no request is queued or scoring (use after
  /// Shutdown for a clean teardown, or between load phases in tests).
  /// `timeout_seconds` < 0 waits forever; otherwise kDeadlineExceeded when
  /// the service is still busy at the timeout.
  Status Drain(double timeout_seconds = -1.0);

  /// \brief Snapshot of the counters.
  ServeMetrics Metrics() const;

 private:
  using Clock = std::chrono::steady_clock;

  // Admission gate: returns once a scoring slot is held, or with the shed /
  // deadline status. Counts the specific shed counter; the caller folds the
  // status into requests/errors.
  Status AcquireSlot(Clock::time_point deadline, Clock::time_point queue_deadline);
  void ReleaseSlot();

  const size_t max_batch_points_;
  const uint64_t max_concurrency_;
  const uint64_t max_queue_depth_;

  // Current model generation; accessed only through std::atomic_load/store.
  std::shared_ptr<const ModelSnapshot> snapshot_;

  mutable std::mutex mu_;  // Guards the gate + every counter below.
  std::condition_variable slot_free_;
  std::condition_variable idle_;  // Signalled when queued_ + in_flight_ == 0.
  bool shutdown_ = false;
  uint64_t in_flight_ = 0;
  uint64_t queued_ = 0;
  uint64_t peak_in_flight_ = 0;
  uint64_t peak_queue_depth_ = 0;
  uint64_t requests_ = 0;
  uint64_t errors_ = 0;
  uint64_t points_ = 0;
  uint64_t batches_ = 0;
  double busy_seconds_ = 0.0;
  uint64_t max_batch_ = 0;
  uint64_t publishes_ = 0;
  uint64_t not_ready_ = 0;
  uint64_t shed_queue_full_ = 0;
  uint64_t shed_queue_timeout_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t deadline_partial_points_ = 0;
  Clock::time_point publish_time_{};
};

}  // namespace serve
}  // namespace fairkm

#endif  // FAIRKM_SERVE_ASSIGN_SERVICE_H_
