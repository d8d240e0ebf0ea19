#ifndef CAME_INFER_FUSED_EMBEDDING_TABLE_H_
#define CAME_INFER_FUSED_EMBEDDING_TABLE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
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
/// On disk the table is a versioned, CRC-checksummed binary (magic
/// "CAMEFET1", same section framing as the training checkpoint format):
/// every section carries its own CRC32, loads are bounds-checked against
/// the declared lengths, and saves go through the atomic
/// temp-write + fsync + rename path, so a torn or bit-flipped file is
/// reported as Corruption rather than served. The table stores fp32 only;
/// serving-time quantization and panel-pruning bounds belong to the
/// ScoreServer's tensor::ShardStore.
class FusedEmbeddingTable {
 public:
  /// Empty table (num_entities() == 0). Populate via Build or Load.
  FusedEmbeddingTable() = default;

  /// Direct construction from raw tensors (tests, custom encoders).
  /// `bias` and `folded_rows` may be empty tensors.
  FusedEmbeddingTable(std::string model_name, tensor::Tensor candidates,
                      tensor::Tensor bias, tensor::Tensor folded_rows);

  /// Folds `model`'s entity-side state. The model must be in eval mode;
  /// every forward involved runs under an enforced no-tape scope.
  static FusedEmbeddingTable Build(baselines::InnerProductKgcModel* model);

  Status Save(const std::string& path) const;
  static Status Load(const std::string& path, FusedEmbeddingTable* out);

  /// Installs folded_rows into `model` (no-op when this table carries
  /// none). After this, the model's eval-mode forwards gather the folded
  /// rows instead of re-running the encoder stack.
  void InstallFoldedRows(baselines::KgcModel* model) const;

  const std::string& model_name() const { return model_name_; }
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
  std::string model_name_;
  tensor::Tensor candidates_;   // [N, d]
  tensor::Tensor bias_;         // [N] or empty
  tensor::Tensor folded_rows_;  // [N, d_f] or empty
};

}  // namespace came::infer

#endif  // CAME_INFER_FUSED_EMBEDDING_TABLE_H_
