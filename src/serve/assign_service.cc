#include "serve/assign_service.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "core/assign.h"

namespace fairkm {
namespace serve {

namespace {

uint64_t ResolveConcurrency(int requested) {
  if (requested > 0) return static_cast<uint64_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

using SteadyClock = std::chrono::steady_clock;

// Negative budgets mean "unbounded" — represented as time_point::max() so a
// single comparison covers both cases.
SteadyClock::time_point DeadlineFrom(SteadyClock::time_point start,
                                     double seconds) {
  if (seconds < 0.0) return SteadyClock::time_point::max();
  return start + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(seconds));
}

}  // namespace

AssignService::AssignService(const AssignServiceOptions& options)
    : max_batch_points_(std::max<size_t>(options.max_batch_points, 1)),
      max_concurrency_(ResolveConcurrency(options.max_concurrency)),
      max_queue_depth_(options.max_queue_depth) {}

void AssignService::Publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  // Stamp the publish time before the swap: a Metrics() racing in between
  // sees at worst a fresh timestamp with the previous snapshot (transiently
  // young age), never a visible snapshot with an unset timestamp.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    ++publishes_;
    publish_time_ = Clock::now();
  }
  std::atomic_store(&snapshot_, std::move(snapshot));
}

std::shared_ptr<const ModelSnapshot> AssignService::snapshot() const {
  return std::atomic_load(&snapshot_);
}

void AssignService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  // Wake every queued waiter so it observes shutdown_ and sheds itself.
  slot_free_.notify_all();
}

bool AssignService::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

Status AssignService::Drain(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  auto quiescent = [this] { return in_flight_ == 0 && queued_ == 0; };
  if (timeout_seconds < 0.0) {
    idle_.wait(lock, quiescent);
    return Status::OK();
  }
  const Clock::time_point deadline = DeadlineFrom(Clock::now(), timeout_seconds);
  if (!idle_.wait_until(lock, deadline, quiescent)) {
    return Status::DeadlineExceeded(
        "service still busy after " + std::to_string(timeout_seconds) +
        "s (" + std::to_string(in_flight_) + " scoring, " +
        std::to_string(queued_) + " queued)");
  }
  return Status::OK();
}

Status AssignService::AcquireSlot(Clock::time_point deadline,
                                  Clock::time_point queue_deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return Status::Unavailable("AssignService is shut down");
  if (in_flight_ < max_concurrency_) {
    ++in_flight_;
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
    return Status::OK();
  }
  if (queued_ >= max_queue_depth_) {
    ++shed_queue_full_;
    return Status::Unavailable(
        "admission queue full (" + std::to_string(queued_) + " waiting, " +
        std::to_string(in_flight_) + " scoring): retry later");
  }
  ++queued_;
  peak_queue_depth_ = std::max(peak_queue_depth_, queued_);
  const Clock::time_point wake_at = std::min(deadline, queue_deadline);
  Status st;
  for (;;) {
    if (shutdown_) {
      st = Status::Unavailable("AssignService is shut down");
      break;
    }
    if (in_flight_ < max_concurrency_) {
      ++in_flight_;
      peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
      break;
    }
    const Clock::time_point now = Clock::now();
    if (now >= deadline) {
      ++deadline_exceeded_;
      st = Status::DeadlineExceeded(
          "request deadline expired in the admission queue");
      break;
    }
    if (now >= queue_deadline) {
      ++shed_queue_timeout_;
      st = Status::Unavailable(
          "request timed out in the admission queue: retry later");
      break;
    }
    if (wake_at == Clock::time_point::max()) {
      slot_free_.wait(lock);
    } else {
      slot_free_.wait_until(lock, wake_at);
    }
  }
  --queued_;
  if (queued_ == 0 && in_flight_ == 0) idle_.notify_all();
  return st;
}

void AssignService::ReleaseSlot() {
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    idle = (in_flight_ == 0 && queued_ == 0);
  }
  slot_free_.notify_one();
  if (idle) idle_.notify_all();
}

Result<cluster::Assignment> AssignService::Assign(
    const data::Matrix& points, const data::SensitiveView* sensitive,
    const AssignRequestOptions& request) {
  const Clock::time_point arrival = Clock::now();
  const Clock::time_point deadline =
      DeadlineFrom(arrival, request.deadline_seconds);
  const Clock::time_point queue_deadline =
      DeadlineFrom(arrival, request.queue_timeout_seconds);

  // Pin the model generation for the whole request BEFORE taking a slot:
  // every batch of this request scores against one snapshot even if the
  // writer publishes mid-request.
  const std::shared_ptr<const ModelSnapshot> model = snapshot();
  auto fail = [this](Status status) -> Result<cluster::Assignment> {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
    ++errors_;
    return status;
  };
  if (model == nullptr) {
    // Not an argument error: nothing is wrong with the request, the service
    // just has no model yet. kUnavailable is the retryable signal a client
    // backoff loop understands.
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
    ++errors_;
    ++not_ready_;
    return Status::Unavailable(
        "no model published yet: retry after the first Publish");
  }
  const core::ModelExport& trained = model->model();
  if (Status st = core::ValidateAssignRequest(trained, points, sensitive);
      !st.ok()) {
    return fail(std::move(st));
  }
  const size_t rows = points.rows();
  cluster::Assignment out(rows, 0);
  if (rows == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      ++requests_;
      ++errors_;
      return Status::Unavailable("AssignService is shut down");
    }
    ++requests_;
    return out;
  }
  if (Status st = AcquireSlot(deadline, queue_deadline); !st.ok()) {
    return fail(std::move(st));
  }
  // Reused across requests on this thread — the steady state allocates
  // nothing (the buffers only grow to the largest batch/k/|S| seen).
  thread_local core::AssignScratch scratch;
  Timer timer;
  uint64_t request_batches = 0;
  uint64_t request_max_batch = 0;
  size_t scored = 0;
  Status batch_status;
  for (size_t begin = 0; begin < rows; begin += max_batch_points_) {
    // Cooperative degradation point between scoring chunks: the fault
    // harness can force an error or stall here, and a request that ran out
    // of budget stops promptly instead of scoring to completion. Checked
    // via fault::Check (not FAIRKM_FAULT_POINT) so the slot is still
    // released below on the error path.
    if (fault::Enabled()) {
      batch_status = fault::Check("serve.batch");
      if (!batch_status.ok()) break;
    }
    if (Clock::now() >= deadline) {
      batch_status = Status::DeadlineExceeded(
          "request deadline expired after scoring " + std::to_string(scored) +
          " of " + std::to_string(rows) + " points");
      break;
    }
    const size_t end = std::min(rows, begin + max_batch_points_);
    core::ScoreRows(trained, points, begin, end, sensitive, &scratch, &out);
    ++request_batches;
    request_max_batch = std::max<uint64_t>(request_max_batch, end - begin);
    scored = end;
  }
  const double elapsed = timer.ElapsedSeconds();
  ReleaseSlot();

  std::lock_guard<std::mutex> lock(mu_);
  ++requests_;
  batches_ += request_batches;
  busy_seconds_ += elapsed;
  max_batch_ = std::max(max_batch_, request_max_batch);
  if (!batch_status.ok()) {
    ++errors_;
    if (batch_status.code() == StatusCode::kDeadlineExceeded) {
      ++deadline_exceeded_;
      // The partial answer is thrown away, but the burnt work is visible.
      deadline_partial_points_ += scored;
    }
    return batch_status;
  }
  points_ += rows;
  return out;
}

ServeMetrics AssignService::Metrics() const {
  const bool has_model = snapshot() != nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  ServeMetrics m;
  m.requests = requests_;
  m.errors = errors_;
  m.points = points_;
  m.batches = batches_;
  m.busy_seconds = busy_seconds_;
  m.points_per_second =
      busy_seconds_ > 0.0 ? static_cast<double>(points_) / busy_seconds_ : 0.0;
  m.avg_batch_points =
      batches_ > 0 ? static_cast<double>(points_) / static_cast<double>(batches_)
                   : 0.0;
  m.max_batch_points = max_batch_;
  m.peak_in_flight = peak_in_flight_;
  m.snapshots_published = publishes_;
  m.snapshot_age_seconds =
      has_model ? std::chrono::duration<double>(Clock::now() - publish_time_)
                      .count()
                : -1.0;
  m.not_ready = not_ready_;
  m.shed_queue_full = shed_queue_full_;
  m.shed_queue_timeout = shed_queue_timeout_;
  m.deadline_exceeded = deadline_exceeded_;
  m.deadline_partial_points = deadline_partial_points_;
  m.queue_depth = queued_;
  m.peak_queue_depth = peak_queue_depth_;
  return m;
}

}  // namespace serve
}  // namespace fairkm
