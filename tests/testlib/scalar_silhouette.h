// Scalar oracle for the silhouette score (metrics/quality.h).
//
// The per-probe loop metrics::SilhouetteScore ran before it moved onto the
// ProbeDistanceSums kernel and threads: one probe at a time, one row at a
// time, std::sqrt(data::SquaredDistance(...)) added to the row's cluster
// sum, the probe's own row skipped. The kernel path replays the same IEEE
// operations, so the two must agree EXACTLY (tests/quality_test.cc). The
// TU builds with -ffp-contract=off, like the kernel TUs, so no FMA
// contraction can creep into the oracle. Free of gtest so bench_scaling can
// time it as the "before" side of its silhouette gate.

#ifndef FAIRKM_TESTS_TESTLIB_SCALAR_SILHOUETTE_H_
#define FAIRKM_TESTS_TESTLIB_SCALAR_SILHOUETTE_H_

#include "cluster/types.h"
#include "data/matrix.h"
#include "metrics/quality.h"

namespace fairkm {
namespace testutil {

/// \brief The silhouette score SH by the single-threaded scalar loop, with
/// the same probe selection as metrics::SilhouetteScore.
double ScalarSilhouette(const data::Matrix& points,
                        const cluster::Assignment& assignment, int k,
                        const metrics::SilhouetteOptions& options = {});

}  // namespace testutil
}  // namespace fairkm

#endif  // FAIRKM_TESTS_TESTLIB_SCALAR_SILHOUETTE_H_
