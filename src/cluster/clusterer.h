// Clusterer — the uniform method interface + name-keyed registry.
//
// Every clustering method the library ships (and any a user plugs in) can be
// selected by name and driven through one call shape:
//
//   auto clusterer = cluster::CreateClusterer("zgya", options).ValueOrDie();
//   auto result = clusterer->Cluster(points, sensitive, &rng).ValueOrDie();
//
// Built-in registrations:
//   * "kmeans"    — S-blind Lloyd (cluster/kmeans.h),
//   * "zgya"      — soft variational ZGYA, the published baseline,
//   * "zgya-hard" — ZGYA's objective re-optimized with exact hard moves,
//   * "fairkm"    — the paper's method (registered by the core layer; call
//                   core::EnsureFairKMClustererRegistered() — see
//                   core/solver.h — before creating it by name).
//
// Clusterer instances may retain reusable session state between Cluster()
// calls (the FairKM adapter keeps a warm core::FairKMSolver for repeated
// calls over the same inputs), which is why Cluster() is non-const and why
// harnesses should create one instance per configuration, not per run.

#ifndef FAIRKM_CLUSTER_CLUSTERER_H_
#define FAIRKM_CLUSTER_CLUSTERER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/types.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace cluster {

/// \brief Method-agnostic knobs understood by every registered factory.
/// Method-specific extras (FairKM's mini-batch/sweep/pruning machinery) are
/// available by constructing the method's adapter directly with its own
/// options struct (e.g. core::MakeFairKMClusterer).
struct ClustererOptions {
  int k = 5;
  /// Fairness weight, method-specific semantics; negative = method auto
  /// (FairKM: the (n/k)^2 heuristic; ZGYA: magnitude balancing; ignored by
  /// "kmeans").
  double lambda = -1.0;
  /// <= 0 = method default (FairKM/ZGYA: 30, K-Means: 100).
  int max_iterations = 0;
  /// Initialization override; unset = method default (K-Means: k-means++,
  /// FairKM/ZGYA: random assignment — the paper's Algorithm 1 step 1).
  /// FairKM accepts only kRandomAssignment.
  std::optional<KMeansInit> init;
  /// Single-attribute methods (zgya*, optionally fairkm): restrict to this
  /// categorical sensitive attribute of the view passed to Cluster(). Empty
  /// = use the view as passed (zgya* then require it to hold exactly one
  /// categorical attribute).
  std::string attribute;
  /// ZGYA soft-mode temperature (<= 0 = library default).
  double soft_temperature = -1.0;
};

/// \brief One clustering method behind a uniform call shape.
class Clusterer {
 public:
  virtual ~Clusterer() = default;

  /// \brief The registry key this instance answers to.
  virtual const std::string& name() const = 0;

  /// \brief Runs the method. S-blind methods ignore `sensitive`. Non-const
  /// so implementations may keep reusable session state across calls.
  ///
  /// Session-reuse contract: an implementation may key its warm state on the
  /// IDENTITY of `points`/`sensitive` — pass the same, unchanged objects to
  /// run the same data again (the warm path), and pass distinct objects for
  /// distinct datasets. Mutating a dataset in place between calls (or
  /// recycling one object's storage for different contents) is outside the
  /// contract; the FairKM adapter additionally guards it with a cheap
  /// content fingerprint, but that is a backstop, not an API promise.
  virtual Result<ClusteringResult> Cluster(const data::Matrix& points,
                                           const data::SensitiveView& sensitive,
                                           Rng* rng) = 0;
};

/// \brief Builds a Clusterer from the generic options.
using ClustererFactory =
    std::function<Result<std::unique_ptr<Clusterer>>(const ClustererOptions&)>;

/// \brief Registers (or replaces — last registration wins) a factory under
/// `name`. Thread-safe. Fails only on an empty name.
Status RegisterClusterer(const std::string& name, ClustererFactory factory);

/// \brief True when `name` has a registered factory.
bool IsClustererRegistered(const std::string& name);

/// \brief Instantiates the named method; NotFound lists the known names.
Result<std::unique_ptr<Clusterer>> CreateClusterer(
    const std::string& name, const ClustererOptions& options = {});

/// \brief Sorted registry keys (the built-ins plus anything user-added).
std::vector<std::string> RegisteredClusterers();

}  // namespace cluster
}  // namespace fairkm

#endif  // FAIRKM_CLUSTER_CLUSTERER_H_
