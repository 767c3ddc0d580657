#include "core/sharded_sweep.h"

#include <algorithm>
#include <utility>

#include "common/proc_stats.h"

namespace fairkm {
namespace core {

ShardedSweep::ShardedSweep(FairKMSolver solver, int num_shards,
                           size_t shard_rows)
    : solver_(std::move(solver)), store_(nullptr), shard_rows_(shard_rows) {
  stats_.num_shards = num_shards;
  stats_.shard_rows = shard_rows;
}

Result<ShardedSweep> ShardedSweep::Create(
    std::shared_ptr<const data::PointStore> store,
    const data::SensitiveView* sensitive, const FairKMOptions& options,
    int num_shards) {
  if (store == nullptr) {
    return Status::InvalidArgument("store must not be null");
  }
  FAIRKM_RETURN_NOT_OK(options.Validate());
  if (options.minibatch_size == 0) {
    return Status::InvalidArgument(
        "sharded sweep requires minibatch_size > 0 (shards are whole "
        "mini-batches)");
  }
  const size_t n = store->rows();
  const size_t batch = static_cast<size_t>(options.minibatch_size);
  // Shard geometry in whole mini-batches: shard boundaries must coincide
  // with prototype-refresh boundaries so "cursor passed the shard" implies
  // "no further reads of its rows until the next sweep".
  const size_t total_batches = (n + batch - 1) / batch;
  if (total_batches == 0) {
    return Status::InvalidArgument("store must not be empty");
  }
  size_t shards = num_shards > 0 ? static_cast<size_t>(num_shards) : 8;
  shards = std::min(shards, total_batches);  // >= 1 mini-batch per shard.
  const size_t batches_per_shard = (total_batches + shards - 1) / shards;
  const size_t shard_rows = batches_per_shard * batch;
  const size_t resolved = (n + shard_rows - 1) / shard_rows;
  std::shared_ptr<const data::PointStore> solver_store = store;
  FAIRKM_ASSIGN_OR_RETURN(
      FairKMSolver solver,
      FairKMSolver::Create(std::move(solver_store), sensitive, options));
  ShardedSweep sweep(std::move(solver), static_cast<int>(resolved),
                     shard_rows);
  sweep.store_ = std::move(store);
  return sweep;
}

void ShardedSweep::EvictEndingShard(size_t processed) {
  // Shard ends are mini-batch boundaries and the callback fires at every
  // one, so the batch ending at a shard's end is the one that finishes it.
  if (processed % shard_rows_ != 0 && processed != store_->rows()) return;
  const size_t begin = (processed - 1) / shard_rows_ * shard_rows_;
  store_->EvictRows(begin, processed);
  ++stats_.evictions;
  stats_.peak_rss_bytes = std::max(stats_.peak_rss_bytes, CurrentRssBytes());
}

Result<RunStop> ShardedSweep::Run(const RunBudget& budget,
                                  const ProgressCallback& progress) {
  // Interpose on the solver's batch-boundary callback: evict first (the
  // aggregates are consistent and the cursor final for this boundary), then
  // defer to the caller. The wrapper cannot perturb the trajectory — it
  // only reads progress and touches the page cache.
  ProgressCallback wrapped = [this, &progress](const SweepProgress& p) {
    EvictEndingShard(p.points_processed);
    return progress ? progress(p) : true;
  };
  return solver_.Run(budget, wrapped);
}

}  // namespace core
}  // namespace fairkm
