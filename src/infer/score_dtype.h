#ifndef CAME_INFER_SCORE_DTYPE_H_
#define CAME_INFER_SCORE_DTYPE_H_

#include <string>

#include "tensor/shard_store.h"

namespace came::infer {

/// Storage precision of the candidate-entity matrix the serving layer
/// scores against: the encoding of the ShardStore it sweeps
/// (tensor::ShardDtype documents each mode).
using ScoreDtype = tensor::ShardDtype;

/// "fp32" | "int8" | "bf16".
inline std::string ScoreDtypeName(ScoreDtype dtype) {
  return tensor::ShardDtypeName(dtype);
}

}  // namespace came::infer

#endif  // CAME_INFER_SCORE_DTYPE_H_
