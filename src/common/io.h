#ifndef CAME_COMMON_IO_H_
#define CAME_COMMON_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace came::io {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum guarding every
/// container section and shard slab. Pass the previous return value as
/// `crc` to extend a running checksum over multiple buffers.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// Injectable write failures for crash-safety tests. A failpoint applies
/// process-wide to every FileWriter; production code never installs one.
enum class FailpointKind {
  kNone = 0,
  /// The write that crosses `at_bytes` persists only the bytes up to the
  /// threshold, then reports an I/O error (a torn write, e.g. EIO mid-way).
  kShortWrite,
  /// Writes past `at_bytes` fail without persisting anything (ENOSPC).
  kEnospc,
  /// Simulated process death: bytes up to `at_bytes` persist, then every
  /// subsequent operation on any writer — Append, Sync, Close, and an
  /// AtomicFileWriter's Commit/rename — fails. Whatever reached the
  /// filesystem stays there, exactly like a real crash.
  kCrashAfterBytes,
};

struct Failpoint {
  FailpointKind kind = FailpointKind::kNone;
  /// Cumulative byte threshold across all writers while the failpoint is
  /// installed.
  uint64_t at_bytes = 0;
};

/// Installs `fp` for the lifetime of the scope (tests only; not
/// thread-safe against concurrent writers). Scopes do not nest.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(Failpoint fp);
  ~ScopedFailpoint();
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;
};

/// Sequential unbuffered writer over a POSIX fd. Every byte it persists is
/// metered against the active failpoint, so fault-injection tests can kill
/// a write at any offset.
class FileWriter {
 public:
  FileWriter() = default;
  /// Closes the fd if still open (errors are lost; call Close() to see
  /// them).
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Creates/truncates `path` for writing.
  Status Open(const std::string& path);
  Status Append(const void* data, size_t n);
  /// fsync(2) — the data is durable after this returns OK.
  Status Sync();
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  int fd_ = -1;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

/// Crash-safe whole-file replacement: writes to `<path>.tmp.<pid>`, then
/// Commit() does fsync + rename + directory fsync. At every instant `path`
/// either keeps its previous contents or holds the complete new ones —
/// never a torn mix. Destroying an uncommitted writer removes the temp.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  Status Open();
  Status Append(const void* data, size_t n);
  /// Durably publishes the new contents under the final path.
  Status Commit();
  /// Drops the temp file; the final path is untouched. Idempotent.
  void Abort();

 private:
  std::string path_;
  std::string tmp_path_;
  FileWriter writer_;
  bool committed_ = false;
};

/// One-shot atomic replacement of `path` with `data`. A `path` that names
/// an existing device or FIFO is written in place instead: a rename would
/// replace the node itself.
Status WriteFileAtomic(const std::string& path, const void* data, size_t n);

/// Reads the whole file into `out` (replacing its contents).
Status ReadFile(const std::string& path, std::string* out);

// The library's one binary container (DESIGN.md §8 "Binary container"),
// shared by the trainer checkpoint and the ShardStore manifest:
//   magic[8] | u32 version | u32 count |
//   count × (u32 fourcc id | u64 len | u32 CRC-32 of the payload | payload)
// little-endian, with no trailing bytes.

static_assert(std::endian::native == std::endian::little,
              "the binary container stores values in host byte order");

/// Largest payload a section may declare: generous for any real model,
/// and the one place a flipped length field is bounded.
inline constexpr uint64_t kMaxSectionBytes = 1ULL << 33;  // 8 GiB

/// Packs a four-character section id little-endian ('M' is the low byte
/// of FourCc("MODL")).
constexpr uint32_t FourCc(const char (&id)[5]) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | static_cast<unsigned char>(id[i]);
  return v;
}

/// Appends fixed-width little-endian values to `*out`.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_arithmetic_v<T>);
    PutBytes(&value, sizeof(T));
  }
  void PutBytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }

 private:
  std::string* out_;
};

/// Bounds-checked reader over bytes that start at byte `offset` of
/// `file`. A read past the end is Corruption naming the file and the file
/// offset of the short read; nothing is read or allocated past the end.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string_view file, size_t offset)
      : bytes_(bytes), file_(file), offset_(offset) {}

  template <typename T>
  Status Get(T* out) {
    static_assert(std::is_arithmetic_v<T>);
    return GetBytes(out, sizeof(T));
  }
  Status GetBytes(void* out, size_t n);
  /// The next `n` bytes as a view into the reader's bytes.
  Status Take(size_t n, std::string_view* out);

  size_t remaining() const { return bytes_.size() - pos_; }
  /// File offset of the next byte to read.
  size_t offset() const { return offset_ + pos_; }

 private:
  std::string_view bytes_;
  std::string_view file_;
  size_t offset_;
  size_t pos_ = 0;
};

/// One kind of container file: the magic, the version this build writes
/// and reads, and the section ids in file order.
struct ContainerFormat {
  std::string_view kind;  // e.g. "checkpoint"; names the file in errors
  std::string_view magic;  // exactly 8 bytes
  uint32_t version;
  std::span<const uint32_t> sections;
};

/// Writes every section of `format`, in order, under `path` through
/// WriteFileAtomic; `encode(i, w)` appends the payload of section i.
Status WriteContainer(const std::string& path, const ContainerFormat& format,
                      const std::function<void(size_t, ByteWriter*)>& encode);

/// Reads `path` and verifies its magic, version, section count, ids in
/// order, lengths and CRCs. `decode(i, r)` then reads section i, so a
/// decoder only ever sees bytes a writer produced; a decoder that leaves
/// bytes unread fails the file. Every mismatch, including an unsupported
/// version, is Corruption; a file that cannot be read is IOError.
Status ReadContainer(const std::string& path, const ContainerFormat& format,
                     const std::function<Status(size_t, ByteReader*)>& decode);

}  // namespace came::io

#endif  // CAME_COMMON_IO_H_
