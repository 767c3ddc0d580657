// Process memory telemetry from /proc/self/status.
//
// The out-of-core sweep's whole contract is an RSS bound ("a 10M-point run
// completes with resident memory below the dataset footprint"), so the
// bounded-RSS test, the out-of-core scaling tool and the end-to-end
// benchmark need a cheap, portable reading of the process's peak resident
// set. Linux exposes it in /proc/self/status as VmHWM (high-water mark); on
// platforms without procfs the reader returns 0 and callers treat the
// telemetry as unavailable rather than failing the run.

#ifndef FAIRKM_COMMON_PROC_STATS_H_
#define FAIRKM_COMMON_PROC_STATS_H_

#include <cstddef>

namespace fairkm {

/// \brief Peak resident set size in bytes (VmHWM), or 0 if unknown. The
/// high-water mark covers the whole process lifetime, which is exactly what
/// an RSS-ceiling assertion wants: a transient spike can't hide between
/// samples.
size_t PeakRssBytes();

}  // namespace fairkm

#endif  // FAIRKM_COMMON_PROC_STATS_H_
