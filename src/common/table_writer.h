#ifndef CAME_COMMON_TABLE_WRITER_H_
#define CAME_COMMON_TABLE_WRITER_H_

#include <string>
#include <vector>

namespace came {

/// Accumulates rows and renders them as an aligned ASCII table (the format
/// the benches print so their output reads like the paper's tables).
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 1);

  /// Aligned, boxed ASCII rendering.
  std::string ToAscii() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace came

#endif  // CAME_COMMON_TABLE_WRITER_H_
