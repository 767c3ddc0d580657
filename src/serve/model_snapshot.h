// Immutable published model snapshots — the reader side of the serving
// tier's single-writer / many-readers contract.
//
// A training solver keeps sweeping (mutating its aggregates in place) while
// serving threads assign out-of-sample points. Readers must never see a
// half-updated model, so the tier freezes the solver's trained model into an
// immutable ModelSnapshot (core::ModelExport, core/assign.h: aligned
// centroids with cached norms, cluster sizes, fairness moment tables,
// attribute structure — everything the core insertion scorer reads) and
// publishes it through a std::shared_ptr that the AssignService swaps
// atomically (std::atomic_load/atomic_store — C++17 has no
// std::atomic<std::shared_ptr>). Every in-flight request holds a shared_ptr
// to the snapshot it started with, so a publish never invalidates a reader
// mid-request; the old snapshot dies when its last reader drops it.
//
// This mirrors the paper's mini-batch consistency model (§6.1): the writer
// exports at mini-batch boundaries — where all aggregates are consistent —
// and readers score against the latest frozen prototype generation.

#ifndef FAIRKM_SERVE_MODEL_SNAPSHOT_H_
#define FAIRKM_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"
#include "core/solver.h"

namespace fairkm {
namespace serve {

/// \brief One frozen trained model. Immutable after construction — share it
/// freely across threads via shared_ptr<const ModelSnapshot>.
class ModelSnapshot {
 public:
  explicit ModelSnapshot(core::ModelExport model, uint64_t version = 0)
      : model_(std::move(model)), version_(version) {}

  const core::ModelExport& model() const { return model_; }
  /// \brief Publish sequence number (0 for snapshots never published).
  uint64_t version() const { return version_; }
  int k() const { return model_.k; }
  size_t d() const { return model_.d; }
  size_t training_rows() const { return model_.num_rows; }
  double lambda() const { return model_.lambda; }

 private:
  core::ModelExport model_;
  uint64_t version_;
};

/// \brief Freezes `solver`'s current trained model into a shareable
/// snapshot. Requires an initialized solver at a consistent point — between
/// sweeps, or inside a Run progress callback (mini-batch boundaries); do not
/// call concurrently with a sweep mutating the same solver.
Result<std::shared_ptr<const ModelSnapshot>> MakeModelSnapshot(
    const core::FairKMSolver& solver, uint64_t version = 0);

}  // namespace serve
}  // namespace fairkm

#endif  // FAIRKM_SERVE_MODEL_SNAPSHOT_H_
