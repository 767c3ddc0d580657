// Out-of-sample Eq. 1 insertion scoring against a frozen trained model.
//
// A new point x goes to the non-empty cluster C minimizing its Eq. 1
// insertion cost
//
//   |C|/(|C|+1) d(x, mu_C)^2  +  lambda * (fairness insertion delta),
//
// the fairness term added only when the point's sensitive values are
// supplied. This is the library's one insertion scorer:
// FairKMSolver::Assign exports its model and scores against the export,
// serve::AssignService scores against a published snapshot's export, and
// online::OnlineFairKM::Admit scores each admitted row against an export it
// refreshes after every row (ExportClusterSlice), so later rows of a batch
// price against what earlier rows shifted.
//
// Scoring runs through the aligned kernel path: each point row is streamed
// directly from the request matrix when it already has the kernel layout
// (width == padded stride, 32-byte-aligned storage), else copied once into
// a lane-padded scratch block; its x·mu_c against ALL k centroids comes from
// one GemvAligned pass over the export's k x stride centroid matrix, and the
// squared distance uses the expanded form
//
//   d(x, mu_c)^2 = ||x||^2 - 2 x·mu_c + ||mu_c||^2
//
// with ||mu_c||^2 cached in the export. Ties break toward the smallest
// cluster id. tests/serve_assign_test.cc pins the assignments against the
// scalar two-loop oracle in tests/testlib in every backend, and against a
// from-scratch recomputation in tests/fairkm_solver_test.cc.
//
// Everything here reads only the export — safe to call from any number of
// threads concurrently on one immutable ModelExport.

#ifndef FAIRKM_CORE_ASSIGN_H_
#define FAIRKM_CORE_ASSIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/types.h"
#include "common/status.h"
#include "core/fairkm_state.h"
#include "core/objective.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief Self-contained frozen copy of a trained FairKM model: everything
/// the insertion scorer needs without touching the live solver — exact
/// centroids in the aligned lane-padded kernel layout with their cached
/// squared norms (expanded-form distance), cluster sizes, the fairness
/// moment tables, and the training view's attribute structure (names,
/// cardinalities, TRAINING dataset fractions/means, weights — the trained
/// model is the distribution reference for out-of-sample deltas). Owns all
/// of its storage; the solver and its inputs may mutate or die after the
/// export (FairKMSolver::ExportModel).
struct ModelExport {
  size_t num_rows = 0;  ///< Training-set size n.
  size_t d = 0;         ///< Feature width.
  size_t stride = 0;    ///< Padded centroid row width (multiple of 4).
  int k = 0;
  double lambda = 0.0;  ///< Resolved fairness weight of the session.
  FairnessTermConfig config;
  std::vector<size_t> counts;  ///< Cluster sizes (empty clusters stay 0).
  /// k x stride centroid matrix, 32-byte aligned rows, zero padding and
  /// all-zero rows for empty clusters — GemvAligned streams it directly.
  data::AlignedVector centroids;
  std::vector<double> centroid_norms;  ///< ||mu_c||^2 (0 for empty clusters).
  FairKMState::FairnessMomentTables moments;

  /// \brief Structure + training-data distribution of one categorical
  /// sensitive attribute.
  struct CategoricalAttr {
    std::string name;
    int cardinality = 0;
    std::vector<double> dataset_fractions;  ///< Training Fr_X(s).
    double weight = 1.0;
  };
  /// \brief Structure + training-data mean of one numeric attribute.
  struct NumericAttr {
    std::string name;
    double dataset_mean = 0.0;  ///< Training dataset average.
    double weight = 1.0;
  };
  std::vector<CategoricalAttr> categorical;
  std::vector<NumericAttr> numeric;
};

/// \brief Re-exports cluster `c` of `state` into `model`: its size, centroid
/// row and norm, its slice of the fairness moment tables, and the state's
/// row count. O(d + sum_S m_S). `model` must already have the shapes
/// FairKMSolver::ExportModel gives it for the same state.
void ExportClusterSlice(const FairKMState& state, int c, ModelExport* model);

/// \brief Reusable per-thread scoring buffers (padded point block, per-
/// cluster dot row, gathered sensitive values). Pass one to repeated
/// ScoreRows / AssignToModel calls to make the steady state
/// allocation-free.
struct AssignScratch {
  data::AlignedVector padded;    ///< Block of lane-padded point rows.
  std::vector<double> dots;      ///< One x·mu_c row (k wide).
  std::vector<size_t> cand;      ///< Non-empty cluster ids, ascending.
  std::vector<double> scale;     ///< Per-cluster |C|/(|C|+1) insertion scale.
  /// Per-cluster fairness weights ClusterScale(|C|) and ClusterScale(|C|+1).
  std::vector<double> fair_scale, fair_scale_ins;
  std::vector<int32_t> codes;    ///< Gathered categorical codes of one point.
  std::vector<double> values;    ///< Gathered numeric values of one point.
};

/// \brief Validates a request against the model: feature width, finite
/// coordinates, the sensitive view mirroring the trained attribute
/// structure, EVERY attribute's row count (ragged views are rejected before
/// any indexing), codes within the trained cardinalities, finite numeric
/// values, and — for a non-empty request — at least one non-empty cluster
/// to assign to. Only the codes/values of `sensitive` are read; its
/// dataset-level fractions/means play no part (the model's price the
/// deltas).
Status ValidateAssignRequest(const ModelExport& model,
                             const data::Matrix& points,
                             const data::SensitiveView* sensitive);

/// \brief Fairness-term change of inserting one out-of-sample point with
/// the given sensitive values into cluster `to`, priced from the model's
/// moment tables (the insertion half of FairKMState::DeltaFairness: no
/// removal, the model's n and dataset-level fractions/means). ScoreRows
/// computes the same value with the two cluster weights hoisted out of its
/// point loop; this per-call form is its test oracle.
double InsertionFairnessDelta(const ModelExport& model,
                              const int32_t* cat_codes,
                              const double* num_values, int to);

/// \brief Scores rows [begin, end) of `points` into out[begin..end). The
/// request must already have passed ValidateAssignRequest; `out` must hold
/// points.rows() entries. `scratch` may be null.
void ScoreRows(const ModelExport& model, const data::Matrix& points,
               size_t begin, size_t end, const data::SensitiveView* sensitive,
               AssignScratch* scratch, cluster::Assignment* out);

/// \brief Validates and scores every row of `points`.
Result<cluster::Assignment> AssignToModel(
    const ModelExport& model, const data::Matrix& points,
    const data::SensitiveView* sensitive = nullptr,
    AssignScratch* scratch = nullptr);

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_ASSIGN_H_
