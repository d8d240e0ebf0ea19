#ifndef CAME_INFER_SCORE_DTYPE_H_
#define CAME_INFER_SCORE_DTYPE_H_

#include <string>

namespace came::infer {

/// Storage precision of the candidate-entity matrix the serving layer
/// scores against. Queries and accumulation stay fp32 in every mode;
/// only the entity-side bytes change:
///
///   * kFp32 — the baseline path, 4 bytes/element.
///   * kInt8 — per-row symmetric int8 + one fp32 scale per row
///             (~1 byte/element); scores come from exact int32 dots
///             scaled back to fp32 (tensor::qgemm).
///   * kBf16 — truncated fp32, 2 bytes/element; panels decode to fp32
///             and reuse the fp32 GEMM.
enum class ScoreDtype { kFp32, kInt8, kBf16 };

/// "fp32" | "int8" | "bf16".
std::string ScoreDtypeName(ScoreDtype dtype);

}  // namespace came::infer

#endif  // CAME_INFER_SCORE_DTYPE_H_
