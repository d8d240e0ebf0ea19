#include "infer/score_dtype.h"

namespace came::infer {

std::string ScoreDtypeName(ScoreDtype dtype) {
  switch (dtype) {
    case ScoreDtype::kFp32:
      return "fp32";
    case ScoreDtype::kInt8:
      return "int8";
    case ScoreDtype::kBf16:
      return "bf16";
  }
  return "unknown";
}

}  // namespace came::infer
