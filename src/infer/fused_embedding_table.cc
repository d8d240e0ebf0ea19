#include "infer/fused_embedding_table.h"

#include <utility>

#include "baselines/kgc_model.h"
#include "common/logging.h"

namespace came::infer {

FusedEmbeddingTable::FusedEmbeddingTable(tensor::Tensor candidates,
                                         tensor::Tensor bias)
    : candidates_(std::move(candidates)), bias_(std::move(bias)) {
  CAME_CHECK_EQ(candidates_.ndim(), 2) << "candidates must be [N, d]";
  if (bias_.numel() > 0) {
    CAME_CHECK_EQ(bias_.ndim(), 1);
    CAME_CHECK_EQ(bias_.dim(0), candidates_.dim(0));
  }
}

FusedEmbeddingTable FusedEmbeddingTable::Build(
    baselines::InnerProductKgcModel* model) {
  CAME_CHECK(model != nullptr);
  CAME_CHECK(!model->training()) << "Build requires eval mode";
  // Clone the candidate matrix: the table is a frozen snapshot, and the
  // serving accessor aliases the live parameter buffer.
  return FusedEmbeddingTable(model->ServingCandidates().Clone(),
                             model->ServingEntityBias().Clone());
}

void FusedEmbeddingTable::InstallFoldedRows(
    baselines::InnerProductKgcModel* model) const {
  CAME_CHECK(model != nullptr);
  CAME_CHECK_GT(model->num_entities(), 0);
  CAME_CHECK_GT(model->num_relations(), 0);
  (void)model->ServingQuery({0}, {0});
}

}  // namespace came::infer
