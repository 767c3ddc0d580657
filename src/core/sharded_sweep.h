// ShardedSweep — out-of-core mini-batch sweep driver over a PointStore.
//
// Wraps a FairKMSolver (core/solver.h) and partitions its store's row
// range into contiguous shards, each a whole number of mini-batches. The
// sweep itself is the solver's serial mini-batch engine (§6.1): within
// every mini-batch each point's K-Means deltas are scored against the
// frozen prototype snapshot, its move is applied to the live aggregates in
// round-robin order, and the prototypes refresh at the batch boundary. What
// the sharding layer adds is residency control: every time the sweep
// cursor passes the end of a shard, that shard's rows are evicted from the
// page cache (PointStore::EvictRows — MADV_DONTNEED on the mmap backend),
// so a dataset far larger than RAM streams through a bounded resident set.
//
// Eviction is invisible to the trajectory: the mapping is read-only and a
// refault re-reads the same bytes from the store file, so a sharded run is
// bit-identical to an in-process serial mini-batch run over the same rows
// with an equal minibatch_size and seed — same assignments, same objective
// history, same pruning counters, in every kernel backend and pruning
// setting. The equivalence is by construction (the driver only
// observes the solver's progress callback; it never steers the sweep), and
// pinned by tests/sharded_sweep_test.cc.

#ifndef FAIRKM_CORE_SHARDED_SWEEP_H_
#define FAIRKM_CORE_SHARDED_SWEEP_H_

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "core/solver.h"
#include "data/point_store.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief Residency telemetry of a sharded run (cumulative across Runs).
struct ShardedSweepStats {
  int num_shards = 0;      ///< Resolved shard count.
  size_t shard_rows = 0;   ///< Rows per shard (multiple of minibatch_size).
  uint64_t evictions = 0;  ///< Shard evictions issued so far.
  /// Peak VmRSS (bytes) sampled at eviction points; 0 until the first
  /// eviction or when /proc/self/status is unavailable.
  size_t peak_rss_bytes = 0;
};

/// \brief Out-of-core sweep session (see the header comment). Move-only,
/// like the solver it owns.
class ShardedSweep {
 public:
  /// \brief Validates the options (FairKMOptions::Validate, plus:
  /// minibatch_size must be > 0 — shards are whole mini-batches) and
  /// resolves the shard geometry.
  /// `num_shards` <= 0 picks a default (8), and any value is clamped so each
  /// shard spans at least one mini-batch; shard_rows rounds the even split
  /// UP to a whole number of mini-batches so shard boundaries always land on
  /// prototype-refresh boundaries.
  static Result<ShardedSweep> Create(
      std::shared_ptr<const data::PointStore> store,
      const data::SensitiveView* sensitive, const FairKMOptions& options,
      int num_shards = 0);

  ShardedSweep(ShardedSweep&&) noexcept = default;
  ShardedSweep& operator=(ShardedSweep&&) noexcept = default;

  /// \brief Forwarded to FairKMSolver::Init (a random assignment drawn from
  /// the seed/rng, or a warm start).
  Status Init(Rng* rng) { return solver_.Init(rng); }
  Status Init(uint64_t seed) { return solver_.Init(seed); }
  Status Init(cluster::Assignment warm_start) {
    return solver_.Init(std::move(warm_start));
  }

  /// \brief FairKMSolver::Run with eviction interposed: the driver wraps
  /// `progress` so that the mini-batch boundary that ends a shard evicts
  /// that shard, then the caller's callback — if any — runs as usual and
  /// keeps its cooperative-cancel contract. Eviction keys off the cursor
  /// alone, so every full sweep evicts every shard once, whatever came
  /// before it (a cancel, a re-Init, or a restore that moved the cursor).
  Result<RunStop> Run(const RunBudget& budget = {},
                      const ProgressCallback& progress = nullptr);

  /// \brief The wrapped session, for observation (CurrentResult, Assign,
  /// checkpoints, ...). Driving sweeps through it directly bypasses
  /// eviction — harmless for correctness, it just forfeits the RSS bound.
  FairKMSolver& solver() { return solver_; }
  const FairKMSolver& solver() const { return solver_; }

  const ShardedSweepStats& stats() const { return stats_; }

 private:
  ShardedSweep(FairKMSolver solver, int num_shards, size_t shard_rows);

  /// Evicts the shard that ends at mini-batch boundary `processed`, if
  /// one does, and samples RSS.
  void EvictEndingShard(size_t processed);

  FairKMSolver solver_;
  std::shared_ptr<const data::PointStore> store_;  // Aliases solver's store.
  size_t shard_rows_ = 0;
  ShardedSweepStats stats_;
};

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_SHARDED_SWEEP_H_
