#include "kg/kg_files.h"

#include <algorithm>
#include <charconv>

#include "common/logging.h"

namespace came::kg {

Status TsvReader::Open(const std::string& path) {
  path_ = path;
  lineno_ = 0;
  in_ = std::ifstream(path_);
  if (!in_) return Status::IOError("cannot open " + path_);
  return Status::OK();
}

Result<bool> TsvReader::Next(size_t n) {
  CAME_CHECK(n >= 1 && n <= kMaxFields);
  do {
    if (!std::getline(in_, line_)) {
      if (in_.bad()) return Status::IOError("read failed on " + path_);
      return false;
    }
    ++lineno_;
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
  } while (line_.empty());
  const size_t got =
      static_cast<size_t>(std::count(line_.begin(), line_.end(), '\t')) + 1;
  if (got != n) {
    return Malformed("expected " + std::to_string(n) +
                     " tab-separated fields, got " + std::to_string(got));
  }
  const std::string_view line(line_);
  size_t start = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const size_t tab = line.find('\t', start);
    fields_[i] = line.substr(start, tab - start);
    start = tab + 1;
  }
  fields_[n - 1] = line.substr(start);
  return true;
}

Result<int64_t> TsvReader::Id(size_t i, int64_t limit,
                              const char* what) const {
  const std::string_view text = fields_[i];
  const char* end = text.data() + text.size();
  int64_t id = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, id);
  if (ec == std::errc::invalid_argument || stop != end) {
    return Malformed("non-numeric " + std::string(what) + " \"" +
                     std::string(text) + "\"");
  }
  // An id past int64 is out of range too, never a wrapped-around value.
  if (ec == std::errc::result_out_of_range || id < 0 || id >= limit) {
    return Malformed(std::string(what) + " " + std::string(text) +
                     " out of range [0, " + std::to_string(limit) + ")");
  }
  return id;
}

Result<bool> TsvReader::NextTriple(int64_t num_entities,
                                   int64_t num_relations, Triple* t) {
  Result<bool> got = Next(3);
  if (!got.ok() || !got.value()) return got;
  Result<int64_t> head = Id(0, num_entities, "head id");
  if (!head.ok()) return head.status();
  Result<int64_t> rel = Id(1, num_relations, "relation id");
  if (!rel.ok()) return rel.status();
  Result<int64_t> tail = Id(2, num_entities, "tail id");
  if (!tail.ok()) return tail.status();
  *t = Triple{head.value(), rel.value(), tail.value()};
  return true;
}

Status TsvReader::Malformed(const std::string& why) const {
  return Status::Corruption(path_ + ":" + std::to_string(lineno_) + ": " +
                            why);
}

Status TsvWriter::Open(const std::string& path) {
  path_ = path;
  out_.open(path_, std::ios::out | std::ios::trunc);
  if (!out_) return Status::IOError("cannot open " + path_);
  return Status::OK();
}

Status TsvWriter::Close() {
  // The stream state is only final once the buffer is flushed: a row
  // that did not fit the disk fails here, not when it was written.
  out_.close();
  if (out_.fail()) return Status::IOError("write failed for " + path_);
  return Status::OK();
}

}  // namespace came::kg
