#ifndef CAME_KG_KG_FILES_H_
#define CAME_KG_KG_FILES_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "common/status.h"
#include "kg/triple_store.h"
#include "kg/vocab.h"

namespace came::kg {

// The on-disk form of a KG, one directory of five tab-separated files:
//   entities.tsv                    id \t name \t type   (type: EntityType)
//   relations.tsv                   id \t name
//   train.tsv, valid.tsv, test.tsv  head \t relation \t tail
// Every reader and writer of them goes through this module; the line
// rules and the error format are in DESIGN.md §16 "KG files".

inline constexpr char kEntitiesFile[] = "entities.tsv";
inline constexpr char kRelationsFile[] = "relations.tsv";
inline constexpr char kTrainFile[] = "train.tsv";
inline constexpr char kValidFile[] = "valid.tsv";
inline constexpr char kTestFile[] = "test.tsv";

inline std::string KgPath(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

/// Reads a tab-separated file one line at a time. A trailing '\r' is
/// dropped and blank lines are skipped; every other line must split into
/// exactly the number of fields the caller asks for. Fields are views into
/// the current line, so reading allocates nothing per line once the line
/// buffer has grown. Every error names the file and line:
/// Corruption("<path>:<line>: <why>").
class TsvReader {
 public:
  static constexpr size_t kMaxFields = 3;

  /// Opens `path` (closing any file opened before) at line 0. IOError
  /// when it cannot be opened.
  Status Open(const std::string& path);

  /// Reads the next non-blank line, which must hold exactly `n` fields
  /// (1 <= n <= kMaxFields). Returns false at end of file.
  Result<bool> Next(size_t n);

  /// Field `i` of the current line, valid until the next call to Next.
  std::string_view field(size_t i) const { return fields_[i]; }

  /// Field `i` of the current line as an id in [0, limit); `what` names
  /// the field in the error ("non-numeric <what> ..." or
  /// "<what> <text> out of range [0, limit)").
  Result<int64_t> Id(size_t i, int64_t limit, const char* what) const;

  /// Reads the next "head \t relation \t tail" row, with head and tail
  /// checked against `num_entities` and the relation against
  /// `num_relations`. Returns false at end of file.
  Result<bool> NextTriple(int64_t num_entities, int64_t num_relations,
                          Triple* t);

  /// Corruption("<path>:<line>: <why>") for the current line.
  Status Malformed(const std::string& why) const;

 private:
  std::string path_;
  std::ifstream in_;
  std::string line_;
  int64_t lineno_ = 0;
  std::string_view fields_[kMaxFields];
};

/// Writes a tab-separated file row by row. Rows are buffered; Close()
/// flushes and closes the file and is the only place a failed write is
/// reported, so every writer must return its Status.
class TsvWriter {
 public:
  /// Creates (or truncates) `path`. IOError when it cannot be opened.
  Status Open(const std::string& path);

  /// One entities.tsv row.
  void EntityRow(int64_t id, std::string_view name, EntityType type) {
    Row(id, name, static_cast<int>(type));
  }
  /// One relations.tsv row.
  void RelationRow(int64_t id, std::string_view name) { Row(id, name); }
  /// One train/valid/test.tsv row.
  void TripleRow(int64_t head, int64_t rel, int64_t tail) {
    out_ << head << '\t' << rel << '\t' << tail << '\n';
  }

  /// One row of any streamable fields, for files that share these line
  /// rules outside a KG directory (came_cli's config.tsv).
  template <typename First, typename... Rest>
  void Row(const First& first, const Rest&... rest) {
    out_ << first;
    ((out_ << '\t' << rest), ...);
    out_ << '\n';
  }

  /// Flushes and closes the file: IOError if any row failed to write.
  Status Close();

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace came::kg

#endif  // CAME_KG_KG_FILES_H_
