#ifndef CAME_COMMON_JSON_WRITER_H_
#define CAME_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace came {

/// Minimal streaming JSON emitter for machine-readable bench/eval output.
/// Caller drives the structure (objects/arrays/keys); the writer handles
/// commas, indentation, string escaping, and float formatting. Invalid
/// sequences (e.g. a value with no pending key inside an object) are
/// CHECK-failures, not silent garbage.
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("shape"); w.BeginArray(); w.Int(512); w.Int(512); w.EndArray();
///   w.Key("gflops"); w.Double(61.9);
///   w.EndObject();
///   w.WriteFile("BENCH_micro_ops.json");
class JsonWriter {
 public:
  JsonWriter();

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// Next value becomes this key's value. Only valid inside an object.
  void Key(const std::string& k);

  void String(const std::string& v);
  void Int(int64_t v);
  /// Non-finite doubles are emitted as null (JSON has no NaN/inf).
  void Double(double v);
  void Bool(bool v);
  void Null();

  /// The document so far. Valid once every Begin* has been closed.
  const std::string& Str() const;
  /// Writes Str() (plus trailing newline) to `path` through
  /// io::WriteFileAtomic: a crash leaves the previous file or the whole new
  /// one, and a failed write is an IOError.
  Status WriteFile(const std::string& path) const;

 private:
  enum class Scope { kObject, kArray };
  void BeforeValue();
  void Indent();

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
  bool done_ = false;
};

/// JSON string escaping for ", \, and control characters.
std::string JsonEscape(const std::string& s);

}  // namespace came

#endif  // CAME_COMMON_JSON_WRITER_H_
