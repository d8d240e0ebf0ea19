#include "tensor/panel_bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "tensor/qgemm.h"

namespace came::tensor {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

}  // namespace

PanelBoundTable::PanelBoundTable(int64_t rows, int64_t block_rows)
    : rows_(rows), block_rows_(block_rows) {
  CAME_CHECK_GT(rows, 0);
  CAME_CHECK_GT(block_rows, 0);
  const int64_t blocks = (rows + block_rows - 1) / block_rows;
  norms_.assign(static_cast<size_t>(blocks), 0.0f);
  bias_max_.assign(static_cast<size_t>(blocks), 0.0f);
}

void PanelBoundTable::AccountRow(int64_t r, float norm_upper, float bias) {
  CAME_CHECK(!empty());
  CAME_CHECK_GE(r, 0);
  CAME_CHECK_LT(r, rows_);
  const size_t blk = static_cast<size_t>(r / block_rows_);
  // NaN would poison the max comparisons below into silently keeping the
  // old (too-small) value; widen to +inf, which correctly never prunes.
  if (std::isnan(norm_upper)) norm_upper = kInf;
  if (std::isnan(bias)) bias = kInf;
  norms_[blk] = std::max(norms_[blk], norm_upper);
  bias_max_[blk] = std::max(bias_max_[blk], bias);
}

float PanelBoundTable::MaxNorm(int64_t begin, int64_t end) const {
  if (empty()) return kInf;
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_LE(end, rows_);
  float m = 0.0f;
  for (int64_t b = begin / block_rows_; b <= (end - 1) / block_rows_; ++b) {
    m = std::max(m, norms_[static_cast<size_t>(b)]);
  }
  return m;
}

float PanelBoundTable::MaxBias(int64_t begin, int64_t end) const {
  if (empty()) return kInf;
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_LE(end, rows_);
  float m = bias_max_[static_cast<size_t>(begin / block_rows_)];
  for (int64_t b = begin / block_rows_ + 1; b <= (end - 1) / block_rows_;
       ++b) {
    m = std::max(m, bias_max_[static_cast<size_t>(b)]);
  }
  return m;
}

void AccountRowsFp32(PanelBoundTable* bounds, const float* rows,
                     const float* bias, int64_t first_row, int64_t n,
                     int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    bounds->AccountRow(first_row + i,
                       qgemm::RowNormUpperBoundFp32(rows + i * d, d),
                       bias != nullptr ? bias[i] : 0.0f);
  }
}

void AccountRowsInt8(PanelBoundTable* bounds, const int8_t* codes,
                     const float* scales, const float* bias,
                     int64_t first_row, int64_t n, int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    bounds->AccountRow(
        first_row + i,
        qgemm::RowNormUpperBoundInt8(codes + i * d, d, scales[i]),
        bias != nullptr ? bias[i] : 0.0f);
  }
}

void AccountRowsBf16(PanelBoundTable* bounds, const uint16_t* rows,
                     const float* bias, int64_t first_row, int64_t n,
                     int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    bounds->AccountRow(first_row + i,
                       qgemm::RowNormUpperBoundBf16(rows + i * d, d),
                       bias != nullptr ? bias[i] : 0.0f);
  }
}

}  // namespace came::tensor
