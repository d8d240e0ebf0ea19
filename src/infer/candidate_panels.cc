#include "infer/candidate_panels.h"

#include <utility>

#include "common/logging.h"

namespace came::infer {

ShardStorePanelSource::ShardStorePanelSource(tensor::ShardStore* store)
    : ShardStorePanelSource(store, tensor::Tensor()) {}

ShardStorePanelSource::ShardStorePanelSource(tensor::ShardStore* store,
                                             tensor::Tensor bias)
    : store_(store), bias_(std::move(bias)) {
  CAME_CHECK(store_ != nullptr);
  if (!has_bias()) return;
  CAME_CHECK_EQ(bias_.ndim(), 1);
  CAME_CHECK_EQ(bias_.dim(0), store_->rows());
  // Norm bounds come from the store; only the bias column is accounted
  // here (a zero norm is a valid bound for the norm half of this table).
  bias_bounds_ = tensor::PanelBoundTable(store_->rows(),
                                         tensor::kDefaultBoundBlockRows);
  for (int64_t r = 0; r < store_->rows(); ++r) {
    bias_bounds_.AccountRow(r, 0.0f, bias_.data()[r]);
  }
}

}  // namespace came::infer
