#include "infer/fused_embedding_table.h"

#include <utility>

#include "baselines/kgc_model.h"
#include "common/logging.h"

namespace came::infer {

FusedEmbeddingTable::FusedEmbeddingTable(tensor::Tensor candidates,
                                         tensor::Tensor bias,
                                         tensor::Tensor folded_rows)
    : candidates_(std::move(candidates)),
      bias_(std::move(bias)),
      folded_rows_(std::move(folded_rows)) {
  CAME_CHECK_EQ(candidates_.ndim(), 2) << "candidates must be [N, d]";
  if (bias_.numel() > 0) {
    CAME_CHECK_EQ(bias_.ndim(), 1);
    CAME_CHECK_EQ(bias_.dim(0), candidates_.dim(0));
  }
  if (folded_rows_.numel() > 0) {
    CAME_CHECK_EQ(folded_rows_.ndim(), 2);
    CAME_CHECK_EQ(folded_rows_.dim(0), candidates_.dim(0));
  }
}

FusedEmbeddingTable FusedEmbeddingTable::Build(
    baselines::InnerProductKgcModel* model) {
  CAME_CHECK(model != nullptr);
  CAME_CHECK(!model->training()) << "Build requires eval mode";
  // Clone the candidate matrix: the table is a frozen snapshot, and the
  // serving accessor aliases the live parameter buffer.
  return FusedEmbeddingTable(model->ServingCandidates().Clone(),
                             model->ServingEntityBias().Clone(),
                             model->FoldEntityEncoders());
}

void FusedEmbeddingTable::InstallFoldedRows(baselines::KgcModel* model) const {
  CAME_CHECK(model != nullptr);
  if (!has_folded_rows()) return;
  model->SetFoldedEncoderCache(folded_rows_.Clone());
}

}  // namespace came::infer
