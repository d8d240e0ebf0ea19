#ifndef CAME_TENSOR_PANEL_BOUNDS_H_
#define CAME_TENSOR_PANEL_BOUNDS_H_

#include <cstdint>
#include <vector>

namespace came::tensor {

/// Default block granularity for panel bounds: fine enough that the
/// smallest shard/panel geometries in the tree (rows_per_shard 37 in
/// tests, panel_width 64) see per-block resolution, at a metadata cost
/// of 8 bytes per 64 rows.
inline constexpr int64_t kDefaultBoundBlockRows = 64;

/// Conservative per-block score-bound metadata over a row table: for
/// fixed-size blocks of rows, the maximum L2 row norm (an upper bound —
/// see qgemm::RowNormUpperBound*) and the maximum per-row bias. The
/// serving sweep combines them into the Cauchy–Schwarz panel bound
///   score(q, row) <= ||q|| * MaxNorm(panel) + MaxBias(panel)
/// which lets it skip panels that provably cannot beat a query's current
/// K-th best (infer::ScoreServer).
///
/// Blocks are globally aligned: block i covers rows
/// [i * block_rows, (i+1) * block_rows), independent of any slab or
/// panel geometry, so a panel bound is the max over every block the
/// panel intersects — a superset of the panel's rows, hence still an
/// upper bound. Non-finite inputs must be folded in as +inf (the
/// builders and AccountRow guarantee this), which disables pruning for
/// the block rather than producing an unsound bound.
///
/// An empty (default-constructed) table is the "no metadata" state:
/// MaxNorm/MaxBias return +inf and nothing ever prunes.
class PanelBoundTable {
 public:
  PanelBoundTable() = default;

  /// All-blocks-at-zero table covering `rows` rows; fold rows in with
  /// AccountRow. The zero baseline is itself a valid upper bound for
  /// norms (>= 0 trivially) and for the bias of rows that carry none.
  PanelBoundTable(int64_t rows, int64_t block_rows);

  bool empty() const { return rows_ == 0; }
  int64_t rows() const { return rows_; }
  int64_t block_rows() const { return block_rows_; }
  int64_t num_blocks() const { return static_cast<int64_t>(norms_.size()); }

  /// Max-merges row r's norm upper bound and bias into its block. A NaN
  /// bias (or norm) is widened to +inf so the block can never prune.
  void AccountRow(int64_t r, float norm_upper, float bias);

  /// Upper bound (>=) on the L2 norm of every row in [begin, end).
  float MaxNorm(int64_t begin, int64_t end) const;
  /// Upper bound (>=) on the bias of every row in [begin, end); 0 for
  /// tables built without bias.
  float MaxBias(int64_t begin, int64_t end) const;

  bool operator==(const PanelBoundTable&) const = default;

 private:
  int64_t rows_ = 0;
  int64_t block_rows_ = 0;
  std::vector<float> norms_;     // per-block max row-norm upper bound
  std::vector<float> bias_max_;  // per-block max bias (0 without bias)
};

/// Builders over contiguous row tables in each serving encoding. `bias`
/// may be null (no per-row bias). `first_row` offsets the accounted row
/// ids, so a caller streaming disjoint row ranges into one shared table
/// (ShardStore slabs) can reuse the same entry points.
void AccountRowsFp32(PanelBoundTable* bounds, const float* rows,
                     const float* bias, int64_t first_row, int64_t n,
                     int64_t d);
void AccountRowsInt8(PanelBoundTable* bounds, const int8_t* codes,
                     const float* scales, const float* bias,
                     int64_t first_row, int64_t n, int64_t d);
void AccountRowsBf16(PanelBoundTable* bounds, const uint16_t* rows,
                     const float* bias, int64_t first_row, int64_t n,
                     int64_t d);

}  // namespace came::tensor

#endif  // CAME_TENSOR_PANEL_BOUNDS_H_
