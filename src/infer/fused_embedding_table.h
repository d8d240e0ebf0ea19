#ifndef CAME_INFER_FUSED_EMBEDDING_TABLE_H_
#define CAME_INFER_FUSED_EMBEDDING_TABLE_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace came::baselines {
class InnerProductKgcModel;
}  // namespace came::baselines

namespace came::infer {

/// The query-independent entity-side state of an inner-product KGC model,
/// copied into contiguous matrices the serving layer scores against with
/// plain GEMM:
///
///   * candidates  [N, d]  — the candidate-entity matrix E, so that
///                           score(h, r, t) = <query(h, r), E[t]> + bias[t];
///   * bias        [N]     — the per-entity bias (empty if the model has
///                           none).
///
/// The query side is the model's query plan (autograd/query_plan.h): it
/// runs every stage of the query that reads only the head or only the
/// relation once per entity and per relation, and holds those rows itself.
///
/// The table lives in memory only. The one persisted candidate format is
/// the ScoreServer's tensor::ShardStore (CRC-framed manifest + slabs),
/// which also owns serving-time quantization and the panel-pruning
/// bounds.
class FusedEmbeddingTable {
 public:
  /// Empty table (num_entities() == 0); assign a built one over it.
  FusedEmbeddingTable() = default;

  /// Direct construction from raw tensors (tests, custom encoders).
  /// `bias` may be an empty tensor.
  FusedEmbeddingTable(tensor::Tensor candidates, tensor::Tensor bias);

  /// Copies `model`'s entity-side state. The model must be in eval mode;
  /// every forward involved runs under an enforced no-tape scope.
  static FusedEmbeddingTable Build(baselines::InnerProductKgcModel* model);

  /// Captures `model`'s query plan now (ServingQuery would on its first
  /// call), so the per-entity and per-relation rows it hoists are computed
  /// at setup rather than on the first query. The model must be in eval
  /// mode.
  void InstallFoldedRows(baselines::InnerProductKgcModel* model) const;

  int64_t num_entities() const {
    return candidates_.numel() > 0 ? candidates_.dim(0) : 0;
  }
  int64_t dim() const {
    return candidates_.numel() > 0 ? candidates_.dim(1) : 0;
  }
  const tensor::Tensor& candidates() const { return candidates_; }
  bool has_bias() const { return bias_.numel() > 0; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  tensor::Tensor candidates_;  // [N, d]
  tensor::Tensor bias_;        // [N] or empty
};

}  // namespace came::infer

#endif  // CAME_INFER_FUSED_EMBEDDING_TABLE_H_
