#include "common/json_writer.h"

#include <cmath>
#include <cstdio>

#include "common/io.h"
#include "common/logging.h"

namespace came {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          (void)std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter() { out_.reserve(1024); }

void JsonWriter::Indent() {
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  CAME_CHECK(!done_) << "value after the root closed";
  if (stack_.empty()) return;  // root value
  if (stack_.back() == Scope::kObject) {
    CAME_CHECK(key_pending_) << "object value without a Key()";
    key_pending_ = false;
    return;  // Key() already emitted the comma/indent and "k":
  }
  if (has_items_.back()) out_ += ',';
  Indent();
  has_items_.back() = true;
}

void JsonWriter::Key(const std::string& k) {
  CAME_CHECK(!stack_.empty() && stack_.back() == Scope::kObject)
      << "Key() outside an object";
  CAME_CHECK(!key_pending_) << "two Key() calls in a row";
  if (has_items_.back()) out_ += ',';
  Indent();
  has_items_.back() = true;
  out_ += '"';
  out_ += JsonEscape(k);
  out_ += "\": ";
  key_pending_ = true;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
}

void JsonWriter::EndObject() {
  CAME_CHECK(!stack_.empty() && stack_.back() == Scope::kObject);
  CAME_CHECK(!key_pending_) << "Key() with no value";
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) Indent();
  out_ += '}';
  if (stack_.empty()) done_ = true;
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
}

void JsonWriter::EndArray() {
  CAME_CHECK(!stack_.empty() && stack_.back() == Scope::kArray);
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) Indent();
  out_ += ']';
  if (stack_.empty()) done_ = true;
}

void JsonWriter::String(const std::string& v) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(v);
  out_ += '"';
  if (stack_.empty()) done_ = true;
}

void JsonWriter::Int(int64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  if (stack_.empty()) done_ = true;
}

void JsonWriter::Double(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";
  } else {
    char buf[64];
    (void)std::snprintf(buf, sizeof(buf), "%.6g", v);
    out_ += buf;
  }
  if (stack_.empty()) done_ = true;
}

void JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  if (stack_.empty()) done_ = true;
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  if (stack_.empty()) done_ = true;
}

const std::string& JsonWriter::Str() const {
  CAME_CHECK(done_ && stack_.empty()) << "JSON document not closed";
  return out_;
}

Status JsonWriter::WriteFile(const std::string& path) const {
  const std::string doc = Str() + '\n';
  return io::WriteFileAtomic(path, doc.data(), doc.size());
}

}  // namespace came
