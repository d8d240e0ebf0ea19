#include "common/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace came::io {

namespace {

// Slice-by-8 CRC-32 tables: kCrcTables[0] is the bytewise table of the
// reflected polynomial; kCrcTables[k][b] advances kCrcTables[0][b] by k
// more zero bytes, so eight table lookups consume eight input bytes.
struct CrcTables {
  uint32_t t[8][256];
};

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    tables.t[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables.t[k - 1][b];
      tables.t[k][b] = (prev >> 8) ^ tables.t[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// Little-endian load of 4 bytes at any alignment (one mov on x86).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

struct FailpointState {
  Failpoint fp;
  uint64_t bytes_seen = 0;  // cumulative across writers while installed
  bool crashed = false;     // kCrashAfterBytes tripped
};

FailpointState g_failpoint;

bool FailpointActive() {
  return g_failpoint.fp.kind != FailpointKind::kNone;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrcTables.t;
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  return ~crc;
}

ScopedFailpoint::ScopedFailpoint(Failpoint fp) {
  CAME_CHECK(!FailpointActive()) << "failpoint scopes do not nest";
  g_failpoint = FailpointState{fp, 0, false};
}

ScopedFailpoint::~ScopedFailpoint() { g_failpoint = FailpointState{}; }

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileWriter::Open(const std::string& path) {
  CAME_CHECK(fd_ < 0) << "FileWriter already open";
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  path_ = path;
  bytes_written_ = 0;
  return Status::OK();
}

Status FileWriter::Append(const void* data, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("FileWriter not open");
  size_t to_write = n;
  Status injected = Status::OK();
  if (FailpointActive()) {
    if (g_failpoint.crashed) {
      return Status::IOError("injected crash: process is dead");
    }
    const uint64_t budget = g_failpoint.fp.at_bytes;
    const uint64_t seen = g_failpoint.bytes_seen;
    if (seen + n > budget) {
      const size_t partial = budget > seen ? static_cast<size_t>(budget - seen)
                                           : 0;
      switch (g_failpoint.fp.kind) {
        case FailpointKind::kShortWrite:
          to_write = partial;
          injected = Status::IOError("injected short write on " + path_);
          break;
        case FailpointKind::kEnospc:
          to_write = 0;
          injected = Status::IOError("injected ENOSPC on " + path_);
          break;
        case FailpointKind::kCrashAfterBytes:
          to_write = partial;
          g_failpoint.crashed = true;
          injected = Status::IOError("injected crash while writing " + path_);
          break;
        case FailpointKind::kNone:
          break;
      }
    }
    g_failpoint.bytes_seen = seen + to_write;
  }
  const auto* p = static_cast<const uint8_t*>(data);
  while (to_write > 0) {
    const ssize_t w = ::write(fd_, p, to_write);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write " + path_ + ": " + std::strerror(errno));
    }
    p += w;
    to_write -= static_cast<size_t>(w);
    bytes_written_ += static_cast<uint64_t>(w);
  }
  return injected;
}

Status FileWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("FileWriter not open");
  if (FailpointActive() && g_failpoint.crashed) {
    return Status::IOError("injected crash: process is dead");
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status FileWriter::Close() {
  if (fd_ < 0) return Status::FailedPrecondition("FileWriter not open");
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return Status::IOError("close " + path_ + ": " + std::strerror(errno));
  }
  if (FailpointActive() && g_failpoint.crashed) {
    return Status::IOError("injected crash: process is dead");
  }
  return Status::OK();
}

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(::getpid())) {}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) Abort();
}

Status AtomicFileWriter::Open() { return writer_.Open(tmp_path_); }

Status AtomicFileWriter::Append(const void* data, size_t n) {
  return writer_.Append(data, n);
}

Status AtomicFileWriter::Commit() {
  CAME_CHECK(!committed_) << "Commit called twice";
  CAME_RETURN_IF_ERROR(writer_.Sync());
  CAME_RETURN_IF_ERROR(writer_.Close());
  if (FailpointActive() && g_failpoint.crashed) {
    return Status::IOError("injected crash before rename of " + tmp_path_);
  }
  if (::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::IOError("rename " + tmp_path_ + " -> " + path_ + ": " +
                           std::strerror(errno));
  }
  committed_ = true;
  // Make the rename itself durable: fsync the containing directory.
  const size_t slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

void AtomicFileWriter::Abort() {
  if (committed_) return;
  if (writer_.is_open()) {
    // Best-effort: Abort already runs on an error path (or in a
    // destructor), so a close failure is logged, not propagated.
    writer_.Close().LogIfError("AtomicFileWriter::Abort");
  }
  ::unlink(tmp_path_.c_str());
}

Status WriteFileAtomic(const std::string& path, const void* data, size_t n) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    // A device or FIFO (/dev/stdout, /dev/full) cannot be replaced by a
    // rename, and must not be: write it in place. Its errors still count.
    FileWriter w;
    CAME_RETURN_IF_ERROR(w.Open(path));
    CAME_RETURN_IF_ERROR(w.Append(data, n));
    return w.Close();
  }
  AtomicFileWriter w(path);
  CAME_RETURN_IF_ERROR(w.Open());
  CAME_RETURN_IF_ERROR(w.Append(data, n));
  return w.Commit();
}

Status ReadFile(const std::string& path, std::string* out) {
  CAME_CHECK(out != nullptr);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status st =
          Status::IOError("read " + path + ": " + std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (r == 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return Status::OK();
}

Status ByteReader::Take(size_t n, std::string_view* out) {
  if (n > remaining()) {
    return Status::Corruption(std::string(file_) + ": truncated at byte " +
                              std::to_string(offset()));
  }
  *out = bytes_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::GetBytes(void* out, size_t n) {
  std::string_view bytes;
  CAME_RETURN_IF_ERROR(Take(n, &bytes));
  std::memcpy(out, bytes.data(), n);
  return Status::OK();
}

Status WriteContainer(const std::string& path, const ContainerFormat& format,
                      const std::function<void(size_t, ByteWriter*)>& encode) {
  CAME_CHECK_EQ(format.magic.size(), 8u);
  std::string file(format.magic);
  ByteWriter w(&file);
  w.Put(format.version);
  w.Put(static_cast<uint32_t>(format.sections.size()));
  for (size_t i = 0; i < format.sections.size(); ++i) {
    w.Put(format.sections[i]);
    const size_t at = file.size();  // len and crc, filled in below
    file.append(sizeof(uint64_t) + sizeof(uint32_t), '\0');
    encode(i, &w);
    const uint64_t len = file.size() - at - 12;
    const uint32_t crc = Crc32(file.data() + at + 12, len);
    std::memcpy(&file[at], &len, sizeof(len));
    std::memcpy(&file[at + 8], &crc, sizeof(crc));
  }
  return WriteFileAtomic(path, file.data(), file.size());
}

Status ReadContainer(const std::string& path, const ContainerFormat& format,
                     const std::function<Status(size_t, ByteReader*)>& decode) {
  std::string file;
  CAME_RETURN_IF_ERROR(ReadFile(path, &file));
  ByteReader r(file, path, 0);
  const auto corrupt = [&path, &format](const std::string& why) {
    return Status::Corruption(path + ": " + std::string(format.kind) + " " +
                              why);
  };

  std::string_view magic;
  CAME_RETURN_IF_ERROR(r.Take(8, &magic));
  if (magic != format.magic) {
    return corrupt("has a bad magic");
  }
  uint32_t version = 0;
  CAME_RETURN_IF_ERROR(r.Get(&version));
  if (version != format.version) {
    return corrupt("version " + std::to_string(version) +
                   " is unsupported (this build reads version " +
                   std::to_string(format.version) + ")");
  }
  uint32_t count = 0;
  CAME_RETURN_IF_ERROR(r.Get(&count));
  if (count != format.sections.size()) {
    return corrupt("has " + std::to_string(count) + " sections, want " +
                   std::to_string(format.sections.size()));
  }
  for (size_t i = 0; i < format.sections.size(); ++i) {
    uint32_t id = 0;
    uint64_t len = 0;
    uint32_t crc = 0;
    CAME_RETURN_IF_ERROR(r.Get(&id));
    CAME_RETURN_IF_ERROR(r.Get(&len));
    CAME_RETURN_IF_ERROR(r.Get(&crc));
    const std::string want(reinterpret_cast<const char*>(&format.sections[i]),
                           sizeof(uint32_t));
    if (id != format.sections[i]) {
      return corrupt("section " + std::to_string(i) + " is not " + want);
    }
    if (len > kMaxSectionBytes) {
      return corrupt("section " + want + " length " + std::to_string(len) +
                     " is above the cap");
    }
    std::string_view bytes;
    CAME_RETURN_IF_ERROR(r.Take(len, &bytes));
    if (Crc32(bytes.data(), bytes.size()) != crc) {
      return corrupt("section " + want + " fails its CRC");
    }
    ByteReader payload(bytes, path, r.offset() - len);
    CAME_RETURN_IF_ERROR(decode(i, &payload));
    if (payload.remaining() != 0) {
      return corrupt("section " + want + " has trailing bytes");
    }
  }
  if (r.remaining() != 0) {
    return corrupt("has trailing bytes after the last section");
  }
  return Status::OK();
}

}  // namespace came::io
