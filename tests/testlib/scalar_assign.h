// Scalar oracle for the core insertion scorer (core/assign.h).
//
// The straightforward per-point, per-candidate loop the kernel scorer
// replaced: the naive two-loop squared distance to each exported centroid,
// scaled by |C|/(|C|+1), plus lambda times core::InsertionFairnessDelta
// when sensitive values are supplied. The kernel path's expanded-form
// distance differs from this one only by floating-point reassociation, so
// the two must pick IDENTICAL clusters (tests/serve_assign_test.cc). Free
// of gtest so bench_scaling can time it as the "before" side of its
// batched-assign gate.

#ifndef FAIRKM_TESTS_TESTLIB_SCALAR_ASSIGN_H_
#define FAIRKM_TESTS_TESTLIB_SCALAR_ASSIGN_H_

#include "cluster/types.h"
#include "core/assign.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace testutil {

/// \brief Scores every row of `points` against `model` one candidate at a
/// time. The request must already have passed core::ValidateAssignRequest.
/// Empty clusters are not candidates; ties break toward the smallest id.
cluster::Assignment ScalarAssign(const core::ModelExport& model,
                                 const data::Matrix& points,
                                 const data::SensitiveView* sensitive);

}  // namespace testutil
}  // namespace fairkm

#endif  // FAIRKM_TESTS_TESTLIB_SCALAR_ASSIGN_H_
