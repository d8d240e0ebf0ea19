#ifndef CAME_INFER_CANDIDATE_PANELS_H_
#define CAME_INFER_CANDIDATE_PANELS_H_

#include <cstdint>

#include "infer/score_dtype.h"
#include "tensor/panel_bounds.h"
#include "tensor/shard_store.h"
#include "tensor/tensor.h"

namespace came::infer {

/// Where the serving layer's candidate-entity rows come from: one
/// tensor::ShardStore — in RAM (ShardStore::InRam, or ShardStore::Quantize
/// into an empty dir) or mmap-backed slabs paging in and out under a
/// residency budget — plus an optional fp32 per-entity bias. The in-RAM
/// table is the one-shard special case of the same access path, so every
/// ScoreServer sweeps through this one source, in every dtype.
///
/// Panels must not cross a shard boundary (PanelEnd clamps them). The
/// store's residency machinery is internally synchronised, so the source
/// is safe for concurrent readers; a panel pointer stays valid across
/// other threads' accesses only while the reader holds a pin on its shard
/// (ShardStore::PinPanel). The bias and both bound tables are immutable.
class ShardStorePanelSource {
 public:
  /// Inner-product-only candidates (no bias). `store` is not owned and
  /// must outlive the source.
  explicit ShardStorePanelSource(tensor::ShardStore* store);
  /// Candidates with a per-entity bias of shape [store->rows()] (aliased,
  /// not copied). An empty tensor means no bias.
  ShardStorePanelSource(tensor::ShardStore* store, tensor::Tensor bias);

  tensor::ShardStore* store() const { return store_; }
  int64_t num_entities() const { return store_->rows(); }
  int64_t dim() const { return store_->dim(); }
  /// The store's encoding.
  ScoreDtype dtype() const { return store_->dtype(); }
  bool has_bias() const { return bias_.numel() > 0; }
  /// Bias of entities [begin, ...), indexed panel-locally. Requires
  /// has_bias().
  const float* BiasFrom(int64_t begin) const { return bias_.data() + begin; }

  /// Largest legal exclusive end for a panel starting at `begin`.
  int64_t PanelEnd(int64_t begin) const { return store_->ShardEnd(begin); }
  /// Upper bound (>=) on the L2 norm of every row the sweep scores in
  /// [begin, end) — the store's bound table, over the encoded rows. +inf
  /// when the store has no bounds (never prune).
  float PanelMaxNorm(int64_t begin, int64_t end) const {
    return store_->bounds().MaxNorm(begin, end);
  }
  /// Upper bound (>=) on the bias of every row in [begin, end); 0 without
  /// bias.
  float PanelMaxBias(int64_t begin, int64_t end) const {
    return has_bias() ? bias_bounds_.MaxBias(begin, end) : 0.0f;
  }

 private:
  tensor::ShardStore* store_;
  tensor::Tensor bias_;                   // [rows] or empty
  tensor::PanelBoundTable bias_bounds_;   // per-64-row max bias
};

}  // namespace came::infer

#endif  // CAME_INFER_CANDIDATE_PANELS_H_
