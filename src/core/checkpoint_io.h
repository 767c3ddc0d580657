// Durable on-disk form of core::SolverCheckpoint.
//
// The file is a section container (common/io.h) with magic "FKMC", format
// version 2, and three sections:
//   * meta: n, k, mini-batch size, lambda, the sweep cursor and counters,
//     the objective history;
//   * state: FairKMState::Checkpoint — the assignment, counts, live,
//     prototype and numeric sums, the total point norm, drift history and
//     the two mode flags. The derived tables (sum norms, U2/UQ moments,
//     fairness bound tables) are not stored: Restore rebuilds them;
//   * pruner (when the run prunes): the SweepPruner per-point bounds.
// Every double is stored as its raw 8-byte image, so a solver restored from
// disk replays the exact trajectory of the in-memory Snapshot()/Restore()
// path — bit-identical assignments, objective history, and pruning
// counters.
//
// Corruption (torn write, truncation, bit rot) reads as kDataLoss — the
// signal FairKMSolver::ResumeFromCheckpointDir uses to quarantine the file
// and fall back to the previous good checkpoint. A file of any other format
// version, older or newer, reads as kInvalidArgument: it is intact, this
// build just does not read it.

#ifndef FAIRKM_CORE_CHECKPOINT_IO_H_
#define FAIRKM_CORE_CHECKPOINT_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/solver.h"

namespace fairkm {
namespace core {

/// \brief Durably writes `cp` to `path` (temp + fsync + atomic rename).
/// Fault scope "checkpoint" (checkpoint.open/.write/.fsync/.rename).
Status WriteSolverCheckpoint(const std::string& path,
                             const SolverCheckpoint& cp);

/// \brief Reads and verifies a checkpoint file. kDataLoss on corruption,
/// kNotFound when absent, kInvalidArgument on any other format version.
Result<SolverCheckpoint> ReadSolverCheckpoint(const std::string& path);

/// \brief Canonical file name of the checkpoint taken after
/// `sweeps_completed` sweeps: "ckpt-00000012.fkmc". Fixed-width so the
/// lexicographic order of names is the chronological order of checkpoints.
std::string CheckpointFileName(int sweeps_completed);

/// \brief Checkpoint files ("ckpt-*.fkmc") in `dir`, oldest first. An
/// empty list (not an error) when the directory exists but holds none;
/// kNotFound when the directory itself is missing. Quarantined files
/// ("*.corrupt", see QuarantineCheckpoint) never match, so resume and
/// retention pruning both skip them.
Result<std::vector<std::string>> ListCheckpointFiles(const std::string& dir);

/// \brief Moves a corrupt checkpoint aside: renames `path` to
/// "<path>.corrupt" (never deletes — the torn frame stays available for a
/// post-mortem, and re-resumes stop re-parsing it). An existing quarantine
/// file of the same name is replaced; the original being already gone is OK.
Status QuarantineCheckpoint(const std::string& path);

/// \brief Drops the oldest checkpoint files in `dir` beyond `keep`
/// (best-effort per file; the first removal error surfaces so a wedged
/// directory is not silent). Quarantined files are not counted and not
/// removed.
Status PruneCheckpointDir(const std::string& dir, int keep);

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_CHECKPOINT_IO_H_
