// cluster::Clusterer adapter for FairKM, backed by the FairKMSolver session
// API: repeated Cluster() calls over the same points/sensitive objects reuse
// one warm solver (point store, norm caches, bound tables, scratch — the
// multi-seed fast path), while a change of inputs transparently rebuilds it.

#include <memory>
#include <string>
#include <utility>

#include "core/solver.h"

namespace fairkm {
namespace core {

namespace {

// Cheap content fingerprint of the inputs, the backstop behind the
// address-identity warm-path key: a caller that recycles one object's
// storage for a DIFFERENT dataset (e.g. a loop-local Matrix landing at the
// same address each iteration) would otherwise silently reuse the stale
// solver. Shape plus first/last-row sums catches that in practice at O(d)
// per call; it is a guard, not a guarantee — see the Cluster() contract in
// cluster/clusterer.h.
struct InputFingerprint {
  size_t rows = 0, cols = 0, cat_attrs = 0, num_attrs = 0;
  double first_row_sum = 0.0, last_row_sum = 0.0;

  static InputFingerprint Of(const data::Matrix& points,
                             const data::SensitiveView& sensitive) {
    InputFingerprint fp;
    fp.rows = points.rows();
    fp.cols = points.cols();
    fp.cat_attrs = sensitive.categorical.size();
    fp.num_attrs = sensitive.numeric.size();
    if (fp.rows > 0) {
      for (size_t j = 0; j < fp.cols; ++j) {
        fp.first_row_sum += points.Row(0)[j];
        fp.last_row_sum += points.Row(fp.rows - 1)[j];
      }
    }
    return fp;
  }

  bool operator==(const InputFingerprint& other) const {
    return rows == other.rows && cols == other.cols &&
           cat_attrs == other.cat_attrs && num_attrs == other.num_attrs &&
           first_row_sum == other.first_row_sum &&
           last_row_sum == other.last_row_sum;
  }
};

class FairKMClusterer : public cluster::Clusterer {
 public:
  FairKMClusterer(FairKMOptions options, std::string attribute)
      : options_(options), attribute_(std::move(attribute)) {}

  const std::string& name() const override {
    static const std::string kName = "fairkm";
    return kName;
  }

  Result<cluster::ClusteringResult> Cluster(
      const data::Matrix& points, const data::SensitiveView& sensitive,
      Rng* rng) override {
    if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
    // Warm-path key: the caller passes the same (address-stable, unchanged)
    // inputs for every run of one configuration — the exp runner's per-seed
    // loop, a CLI invocation, a serving process. Anything else rebuilds;
    // the fingerprint backstops address collisions (recycled storage).
    const InputFingerprint fingerprint = InputFingerprint::Of(points, sensitive);
    if (!solver_ || cached_points_ != &points ||
        cached_sensitive_ != &sensitive || !(fingerprint == fingerprint_)) {
      const data::SensitiveView* view = &sensitive;
      if (!attribute_.empty()) {
        FAIRKM_ASSIGN_OR_RETURN(selected_view_,
                                sensitive.SelectCategorical(attribute_));
        view = &selected_view_;
      }
      FAIRKM_ASSIGN_OR_RETURN(FairKMSolver solver,
                              FairKMSolver::Create(&points, view, options_));
      solver_ = std::make_unique<FairKMSolver>(std::move(solver));
      cached_points_ = &points;
      cached_sensitive_ = &sensitive;
      fingerprint_ = fingerprint;
    }
    FAIRKM_RETURN_NOT_OK(solver_->Init(rng));
    FAIRKM_ASSIGN_OR_RETURN(RunStop stop, solver_->Run());
    (void)stop;
    FAIRKM_ASSIGN_OR_RETURN(FairKMResult result, solver_->CurrentResult());
    return cluster::ClusteringResult(
        std::move(static_cast<cluster::ClusteringResult&>(result)));
  }

 private:
  FairKMOptions options_;
  std::string attribute_;
  // Session cache. selected_view_ must outlive solver_ (the solver
  // references it when attribute_ is set), which member order guarantees.
  data::SensitiveView selected_view_;
  std::unique_ptr<FairKMSolver> solver_;
  const data::Matrix* cached_points_ = nullptr;
  const data::SensitiveView* cached_sensitive_ = nullptr;
  InputFingerprint fingerprint_;
};

}  // namespace

std::unique_ptr<cluster::Clusterer> MakeFairKMClusterer(
    const FairKMOptions& options, const std::string& attribute) {
  return std::unique_ptr<cluster::Clusterer>(
      new FairKMClusterer(options, attribute));
}

void EnsureFairKMClustererRegistered() {
  static const bool registered = [] {
    cluster::RegisterClusterer(
        "fairkm",
        [](const cluster::ClustererOptions& generic)
            -> Result<std::unique_ptr<cluster::Clusterer>> {
          FairKMOptions options;
          options.k = generic.k;
          options.lambda = generic.lambda;
          if (generic.max_iterations > 0) {
            options.max_iterations = generic.max_iterations;
          }
          // Algorithm 1 step 1 is the only initialization a session runs.
          if (generic.init &&
              *generic.init != cluster::KMeansInit::kRandomAssignment) {
            return Status::InvalidArgument(
                "fairkm starts from a random assignment; init must be unset "
                "or kRandomAssignment");
          }
          return std::unique_ptr<cluster::Clusterer>(
              new FairKMClusterer(options, generic.attribute));
        })
        .Abort();  // Only fails on an empty name; impossible here.
    return true;
  }();
  (void)registered;
}

}  // namespace core
}  // namespace fairkm
