#ifndef CAME_INFER_FUSED_EMBEDDING_TABLE_H_
#define CAME_INFER_FUSED_EMBEDDING_TABLE_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace came::baselines {
class KgcModel;
class InnerProductKgcModel;
}  // namespace came::baselines

namespace came::infer {

/// The query-independent entity-side state of an inner-product KGC model,
/// folded offline into contiguous matrices the serving layer scores
/// against with plain GEMM:
///
///   * candidates  [N, d]  — the candidate-entity matrix E, so that
///                           score(h, r, t) = <query(h, r), E[t]> + bias[t];
///   * bias        [N]     — the per-entity bias (empty if the model has
///                           none);
///   * folded_rows [N, d_f]— the model's query-independent encoder rows
///                           (CamE: the MMF fusion output per entity;
///                           empty for models with no foldable stage).
///                           Reinstalled into the model via
///                           SetFoldedEncoderCache, they make eval-mode
///                           query encoding skip the encoder stack with
///                           bitwise-identical results.
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
  /// `bias` and `folded_rows` may be empty tensors.
  FusedEmbeddingTable(tensor::Tensor candidates, tensor::Tensor bias,
                      tensor::Tensor folded_rows);

  /// Folds `model`'s entity-side state. The model must be in eval mode;
  /// every forward involved runs under an enforced no-tape scope.
  static FusedEmbeddingTable Build(baselines::InnerProductKgcModel* model);

  /// Installs folded_rows into `model` (no-op when this table carries
  /// none). After this, the model's eval-mode forwards gather the folded
  /// rows instead of re-running the encoder stack.
  void InstallFoldedRows(baselines::KgcModel* model) const;

  int64_t num_entities() const {
    return candidates_.numel() > 0 ? candidates_.dim(0) : 0;
  }
  int64_t dim() const {
    return candidates_.numel() > 0 ? candidates_.dim(1) : 0;
  }
  const tensor::Tensor& candidates() const { return candidates_; }
  bool has_bias() const { return bias_.numel() > 0; }
  const tensor::Tensor& bias() const { return bias_; }
  bool has_folded_rows() const { return folded_rows_.numel() > 0; }
  const tensor::Tensor& folded_rows() const { return folded_rows_; }

 private:
  tensor::Tensor candidates_;   // [N, d]
  tensor::Tensor bias_;         // [N] or empty
  tensor::Tensor folded_rows_;  // [N, d_f] or empty
};

}  // namespace came::infer

#endif  // CAME_INFER_FUSED_EMBEDDING_TABLE_H_
