#include "tensor/shard_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <vector>

#include "common/io.h"
#include "common/logging.h"
#include "tensor/qgemm.h"

namespace came::tensor {

namespace {

// Manifest layout (little-endian):
//   magic   8 bytes "CAMESHD1"
//   len     u64                  -- payload byte length
//   payload:
//     version        u64           -- 1 (fp32) or 2 (quantized)
//     dtype          u8            -- version 2 only: 1 int8, 2 bf16
//     rows           i64
//     dim            i64
//     rows_per_shard i64
//     sealed         u8
//     num_shards     u64
//     crc[i]         u32 per shard  -- slab payload CRC32 (sealed only)
//   crc     u32                  -- CRC32 of the payload
// fp32 stores keep writing version 1 (bit-identical to the format before
// quantized stores existed), so pre-existing stores and tools stay valid.
// Panel-pruning bounds are not persisted: Open derives them from the
// CRC-verified slabs.
constexpr char kMagic[8] = {'C', 'A', 'M', 'E', 'S', 'H', 'D', '1'};
constexpr uint64_t kVersion = 1;
constexpr uint64_t kQuantVersion = 2;
constexpr uint64_t kMaxShards = 1ULL << 24;

int64_t PadTo64(int64_t n) { return (n + 63) & ~int64_t{63}; }

template <typename T>
void AppendPod(std::string* buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  Status ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > size_ - pos_) {
      return Status::Corruption("manifest truncated at byte " +
                                std::to_string(pos_));
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

std::string ManifestPath(const std::string& dir) { return dir + "/manifest"; }

int64_t ShardBytesDt(int64_t begin, int64_t end, int64_t dim,
                     ShardDtype dtype) {
  const int64_t rows = end - begin;
  switch (dtype) {
    case ShardDtype::kF32:
      return rows * dim * static_cast<int64_t>(sizeof(float));
    case ShardDtype::kBf16:
      return rows * dim * static_cast<int64_t>(sizeof(uint16_t));
    case ShardDtype::kInt8:
      // int8 rows, padded so the per-row fp32 scale block that follows
      // is 64-byte aligned inside the mapping.
      return PadTo64(rows * dim) +
             rows * static_cast<int64_t>(sizeof(float));
  }
  CAME_CHECK(false) << "unknown shard dtype";
  return 0;
}

/// CRC32 of a slab file's payload via a transient read-only mapping (does
/// not disturb the store's residency set).
Result<uint32_t> SlabFileCrc(const std::string& path, int64_t bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + std::strerror(err));
  }
  if (st.st_size != bytes) {
    ::close(fd);
    return Status::Corruption(path + ": slab is " +
                              std::to_string(st.st_size) + " bytes, want " +
                              std::to_string(bytes));
  }
  if (bytes == 0) {
    ::close(fd);
    return uint32_t{0};
  }
  void* base =
      ::mmap(nullptr, static_cast<size_t>(bytes), PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  const uint32_t crc = io::Crc32(base, static_cast<size_t>(bytes));
  ::munmap(base, static_cast<size_t>(bytes));
  return crc;
}

}  // namespace

std::string ShardDtypeName(ShardDtype dtype) {
  switch (dtype) {
    case ShardDtype::kF32:
      return "f32";
    case ShardDtype::kInt8:
      return "int8";
    case ShardDtype::kBf16:
      return "bf16";
  }
  return "unknown";
}

int64_t ShardStore::ShardByteSize(int64_t begin, int64_t end) const {
  return ShardBytesDt(begin, end, dim_, dtype_);
}

ShardStore::~ShardStore() { ReleaseAll(); }

void ShardStore::MoveFrom(ShardStore&& other) {
  // Moves require external serialisation (no concurrent readers on either
  // store), but the guarded fields still want their locks for the
  // analysis — uncontended by contract, so the cost is nil.
  came::MutexLock other_lock(&other.mu_);
  came::MutexLock lock(&mu_);
  dir_ = std::move(other.dir_);
  rows_ = other.rows_;
  dim_ = other.dim_;
  dtype_ = other.dtype_;
  rows_per_shard_ = other.rows_per_shard_;
  max_resident_ = other.max_resident_;
  sealed_ = other.sealed_;
  clock_ = other.clock_;
  resident_count_ = other.resident_count_;
  shards_ = std::move(other.shards_);
  stats_ = other.stats_;
  bounds_ = std::move(other.bounds_);
  other.shards_.clear();
  other.resident_count_ = 0;
  other.rows_ = other.dim_ = 0;
  other.bounds_ = PanelBoundTable();
}

ShardStore::ShardStore(ShardStore&& other) noexcept {
  MoveFrom(std::move(other));
}

ShardStore& ShardStore::operator=(ShardStore&& other) noexcept {
  if (this != &other) {
    ReleaseAll();
    MoveFrom(std::move(other));
  }
  return *this;
}

void ShardStore::ReleaseAll() {
  came::MutexLock lock(&mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].base != nullptr) {
      ::munmap(shards_[i].base,
               static_cast<size_t>(
                   ShardByteSize(shards_[i].begin, shards_[i].end)));
      shards_[i].base = nullptr;
    }
  }
  resident_count_ = 0;
  stats_.resident_shards = 0;
  stats_.resident_bytes = 0;
}

std::string ShardStore::SlabPath(int64_t shard) const {
  return dir_ + "/slab_" + std::to_string(shard) + ".bin";
}

Result<ShardStore> ShardStore::InRam(int64_t rows, int64_t dim) {
  if (rows <= 0 || dim <= 0) {
    return Status::InvalidArgument("ShardStore wants rows > 0 and dim > 0");
  }
  ShardStore s;
  s.rows_ = rows;
  s.dim_ = dim;
  s.rows_per_shard_ = rows;
  s.max_resident_ = 0;
  s.shards_.resize(1);
  s.shards_[0].end = rows;
  CAME_RETURN_IF_ERROR(s.MapAnonymous(0));
  return s;
}

Status ShardStore::MapAnonymous(int64_t shard) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  const int64_t bytes = ShardByteSize(sh.begin, sh.end);
  void* base = ::mmap(nullptr, static_cast<size_t>(bytes),
                      PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                      0);
  if (base == MAP_FAILED) {
    return Status::IOError("anonymous mmap of " + std::to_string(bytes) +
                           " bytes: " + std::strerror(errno));
  }
  came::MutexLock lock(&mu_);
  sh.base = base;
  ++resident_count_;
  stats_.resident_shards = resident_count_;
  stats_.resident_bytes += bytes;
  return Status::OK();
}

Result<ShardStore> ShardStore::Create(const std::string& dir, int64_t rows,
                                      int64_t dim,
                                      const ShardStoreOptions& options) {
  if (rows <= 0 || dim <= 0) {
    return Status::InvalidArgument("ShardStore wants rows > 0 and dim > 0");
  }
  if (options.rows_per_shard < 0 || options.max_resident_shards < 0) {
    return Status::InvalidArgument("negative shard-store option");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  {
    struct stat st {};
    if (::stat(ManifestPath(dir).c_str(), &st) == 0) {
      return Status::InvalidArgument(dir +
                                     " already holds a shard store manifest");
    }
  }
  ShardStore s;
  s.dir_ = dir;
  s.rows_ = rows;
  s.dim_ = dim;
  s.rows_per_shard_ =
      options.rows_per_shard == 0 ? rows : options.rows_per_shard;
  s.max_resident_ = options.max_resident_shards;
  const int64_t n_shards =
      (rows + s.rows_per_shard_ - 1) / s.rows_per_shard_;
  s.shards_.resize(static_cast<size_t>(n_shards));
  for (int64_t i = 0; i < n_shards; ++i) {
    Shard& sh = s.shards_[static_cast<size_t>(i)];
    sh.begin = i * s.rows_per_shard_;
    sh.end = std::min(rows, sh.begin + s.rows_per_shard_);
    const std::string path = s.SlabPath(i);
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC,
                          0644);
    if (fd < 0) {
      return Status::IOError("open " + path + ": " + std::strerror(errno));
    }
    // ftruncate reserves a sparse zero-filled payload without writing it.
    if (::ftruncate(fd, s.ShardByteSize(sh.begin, sh.end)) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("ftruncate " + path + ": " + std::strerror(err));
    }
    ::close(fd);
  }
  CAME_RETURN_IF_ERROR(s.WriteManifest(/*sealed=*/false));
  return s;
}

Result<ShardStore> ShardStore::Open(const std::string& dir,
                                    const ShardStoreOptions& options) {
  std::string raw;
  CAME_RETURN_IF_ERROR(io::ReadFile(ManifestPath(dir), &raw));
  if (raw.size() < sizeof(kMagic) + sizeof(uint64_t) + sizeof(uint32_t)) {
    return Status::Corruption(dir + ": manifest too small");
  }
  if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(dir + ": bad shard store magic");
  }
  uint64_t payload_len = 0;
  std::memcpy(&payload_len, raw.data() + sizeof(kMagic), sizeof(payload_len));
  const size_t framed =
      sizeof(kMagic) + sizeof(uint64_t) + payload_len + sizeof(uint32_t);
  if (payload_len > raw.size() || framed != raw.size()) {
    return Status::Corruption(dir + ": manifest length mismatch");
  }
  const char* payload = raw.data() + sizeof(kMagic) + sizeof(uint64_t);
  uint32_t want_crc = 0;
  std::memcpy(&want_crc, payload + payload_len, sizeof(want_crc));
  if (io::Crc32(payload, payload_len) != want_crc) {
    return Status::Corruption(dir + ": manifest checksum mismatch");
  }

  Reader r(payload, payload_len);
  uint64_t version = 0;
  CAME_RETURN_IF_ERROR(r.ReadPod(&version));
  if (version != kVersion && version != kQuantVersion) {
    return Status::Corruption(dir + ": unsupported shard store version " +
                              std::to_string(version));
  }
  ShardStore s;
  s.dir_ = dir;
  if (version == kQuantVersion) {
    uint8_t dtype_byte = 0;
    CAME_RETURN_IF_ERROR(r.ReadPod(&dtype_byte));
    if (dtype_byte != static_cast<uint8_t>(ShardDtype::kInt8) &&
        dtype_byte != static_cast<uint8_t>(ShardDtype::kBf16)) {
      return Status::Corruption(dir + ": unknown quantized slab dtype byte " +
                                std::to_string(dtype_byte));
    }
    s.dtype_ = static_cast<ShardDtype>(dtype_byte);
  }
  uint8_t sealed = 0;
  uint64_t n_shards = 0;
  CAME_RETURN_IF_ERROR(r.ReadPod(&s.rows_));
  CAME_RETURN_IF_ERROR(r.ReadPod(&s.dim_));
  CAME_RETURN_IF_ERROR(r.ReadPod(&s.rows_per_shard_));
  CAME_RETURN_IF_ERROR(r.ReadPod(&sealed));
  CAME_RETURN_IF_ERROR(r.ReadPod(&n_shards));
  if (s.rows_ <= 0 || s.dim_ <= 0 || s.rows_per_shard_ <= 0 ||
      n_shards > kMaxShards ||
      static_cast<int64_t>(n_shards) !=
          (s.rows_ + s.rows_per_shard_ - 1) / s.rows_per_shard_) {
    return Status::Corruption(dir + ": implausible shard store geometry");
  }
  if (!sealed) {
    return Status::FailedPrecondition(
        dir + ": store is not sealed (crashed mid-write or still training); "
              "refusing to serve unverifiable data");
  }
  s.sealed_ = true;
  s.max_resident_ = options.max_resident_shards;
  s.shards_.resize(n_shards);
  for (uint64_t i = 0; i < n_shards; ++i) {
    Shard& sh = s.shards_[i];
    sh.begin = static_cast<int64_t>(i) * s.rows_per_shard_;
    sh.end = std::min(s.rows_, sh.begin + s.rows_per_shard_);
    CAME_RETURN_IF_ERROR(r.ReadPod(&sh.crc));
  }
  if (r.remaining() != 0) {
    return Status::Corruption(dir + ": trailing bytes in manifest payload");
  }
  for (uint64_t i = 0; i < n_shards; ++i) {
    const Shard& sh = s.shards_[i];
    const std::string path = s.SlabPath(static_cast<int64_t>(i));
    Result<uint32_t> crc = SlabFileCrc(path, s.ShardByteSize(sh.begin, sh.end));
    if (!crc.ok()) return crc.status();
    if (crc.value() != sh.crc) {
      return Status::Corruption(path + ": slab checksum mismatch");
    }
  }
  // Every slab matched its manifest CRC, so bounds derived from the rows
  // bound exactly the contents that will be served.
  CAME_RETURN_IF_ERROR(s.ComputeBounds());
  return s;
}

Result<ShardStore> ShardStore::Quantize(ShardStore* src,
                                        const std::string& dir,
                                        ShardDtype dtype,
                                        const ShardStoreOptions& options) {
  if (src == nullptr) {
    return Status::InvalidArgument("Quantize wants a source store");
  }
  if (src->dtype() != ShardDtype::kF32) {
    return Status::InvalidArgument("Quantize wants an fp32 source store, got " +
                                   ShardDtypeName(src->dtype()));
  }
  if (dtype == ShardDtype::kF32) {
    return Status::InvalidArgument(
        "Quantize target dtype must be int8 or bf16");
  }
  if (options.max_resident_shards < 0) {
    return Status::InvalidArgument("negative shard-store option");
  }
  const bool in_ram = dir.empty();
  if (!in_ram) {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
    }
    struct stat st {};
    if (::stat(ManifestPath(dir).c_str(), &st) == 0) {
      return Status::InvalidArgument(dir +
                                     " already holds a shard store manifest");
    }
  }

  ShardStore s;
  s.dir_ = dir;
  s.rows_ = src->rows();
  s.dim_ = src->dim();
  s.dtype_ = dtype;
  s.rows_per_shard_ = src->rows_per_shard();
  s.max_resident_ = in_ram ? 0 : options.max_resident_shards;
  const int64_t n_shards = src->num_shards();
  s.shards_.resize(static_cast<size_t>(n_shards));

  // One slab at a time: read the fp32 rows from the source's mapping,
  // re-encode into the slab payload (a file-bound buffer, or the in-RAM
  // store's own zero-filled anonymous mapping), record its CRC and fold
  // its rows into the panel bounds (over the *encoded* values, so the
  // bound is scale-aware rather than inherited from fp32).
  PanelBoundTable bounds(s.rows_, kDefaultBoundBlockRows);
  std::string buffer;
  for (int64_t i = 0; i < n_shards; ++i) {
    Shard& sh = s.shards_[static_cast<size_t>(i)];
    sh.begin = i * s.rows_per_shard_;
    sh.end = std::min(s.rows_, sh.begin + s.rows_per_shard_);
    const int64_t srows = sh.end - sh.begin;
    const float* rows = src->PanelRows(sh.begin, sh.end);
    const size_t bytes =
        static_cast<size_t>(s.ShardByteSize(sh.begin, sh.end));
    char* payload = nullptr;
    if (in_ram) {
      CAME_RETURN_IF_ERROR(s.MapAnonymous(i));
      payload = static_cast<char*>(sh.base);
    } else {
      buffer.assign(bytes, '\0');
      payload = buffer.data();
    }
    if (dtype == ShardDtype::kInt8) {
      std::vector<int8_t> q(static_cast<size_t>(srows * s.dim_));
      std::vector<float> scales(static_cast<size_t>(srows));
      Status st = qgemm::QuantizeRowsInt8(rows, srows, s.dim_, q.data(),
                                          scales.data());
      if (!st.ok()) {
        return Status::InvalidArgument("slab " + std::to_string(i) + ": " +
                                       st.message());
      }
      std::memcpy(payload, q.data(), q.size());
      std::memcpy(payload + PadTo64(srows * s.dim_), scales.data(),
                  scales.size() * sizeof(float));
      AccountRowsInt8(&bounds, q.data(), scales.data(), /*bias=*/nullptr,
                      sh.begin, srows, s.dim_);
    } else {
      std::vector<uint16_t> enc(static_cast<size_t>(srows * s.dim_));
      Status st = qgemm::EncodeRowsBf16(rows, srows, s.dim_, enc.data());
      if (!st.ok()) {
        return Status::InvalidArgument("slab " + std::to_string(i) + ": " +
                                       st.message());
      }
      std::memcpy(payload, enc.data(), enc.size() * sizeof(uint16_t));
      AccountRowsBf16(&bounds, enc.data(), /*bias=*/nullptr, sh.begin, srows,
                      s.dim_);
    }
    if (!in_ram) {
      CAME_RETURN_IF_ERROR(io::WriteFileAtomic(s.SlabPath(i), payload, bytes));
    }
    sh.crc = io::Crc32(payload, bytes);
  }
  s.bounds_ = std::move(bounds);
  if (in_ram) return s;
  // Slabs and CRCs are durable; publish the sealed manifest directly —
  // a quantized store is never served unsealed.
  CAME_RETURN_IF_ERROR(s.WriteManifest(/*sealed=*/true));
  return s;
}

Status ShardStore::WriteManifest(bool sealed) {
  std::string payload;
  if (dtype_ == ShardDtype::kF32) {
    AppendPod(&payload, kVersion);
  } else {
    AppendPod(&payload, kQuantVersion);
    AppendPod(&payload, static_cast<uint8_t>(dtype_));
  }
  AppendPod(&payload, rows_);
  AppendPod(&payload, dim_);
  AppendPod(&payload, rows_per_shard_);
  AppendPod(&payload, static_cast<uint8_t>(sealed ? 1 : 0));
  AppendPod(&payload, static_cast<uint64_t>(shards_.size()));
  for (const Shard& sh : shards_) AppendPod(&payload, sh.crc);

  std::string file;
  file.append(kMagic, sizeof(kMagic));
  AppendPod(&file, static_cast<uint64_t>(payload.size()));
  file += payload;
  AppendPod(&file, io::Crc32(payload.data(), payload.size()));
  CAME_RETURN_IF_ERROR(
      io::WriteFileAtomic(ManifestPath(dir_), file.data(), file.size()));
  sealed_ = sealed;
  return Status::OK();
}

Status ShardStore::ComputeBounds() {
  PanelBoundTable bounds(rows_, kDefaultBoundBlockRows);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const int64_t begin = shards_[i].begin;
    const int64_t end = shards_[i].end;
    const int64_t n = end - begin;
    switch (dtype_) {
      case ShardDtype::kF32:
        AccountRowsFp32(&bounds, PanelRows(begin, end), /*bias=*/nullptr,
                        begin, n, dim_);
        break;
      case ShardDtype::kInt8: {
        // Both pointers land in the same slab mapping, so the second
        // accessor is a residency hit and cannot evict the first.
        const int8_t* codes = QuantPanelRows(begin, end);
        const float* scales = PanelScales(begin, end);
        AccountRowsInt8(&bounds, codes, scales, /*bias=*/nullptr, begin, n,
                        dim_);
        break;
      }
      case ShardDtype::kBf16:
        AccountRowsBf16(&bounds, Bf16PanelRows(begin, end), /*bias=*/nullptr,
                        begin, n, dim_);
        break;
    }
  }
  bounds_ = std::move(bounds);
  return Status::OK();
}

Status ShardStore::MapShard(int64_t shard) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  CAME_CHECK(sh.base == nullptr);
  // Make room under the residency budget first.
  while (max_resident_ > 0 && resident_count_ >= max_resident_) {
    int64_t victim = -1;
    uint64_t oldest = UINT64_MAX;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].base != nullptr && shards_[i].pins == 0 &&
          shards_[i].last_use < oldest) {
        oldest = shards_[i].last_use;
        victim = static_cast<int64_t>(i);
      }
    }
    if (victim < 0) {
      // Every resident slab holds a pin lease; map past the budget rather
      // than stall the reader. Residency self-corrects: once pins drop,
      // the next map's eviction scan keeps reclaiming until under budget.
      ++stats_.pin_blocked_evictions;
      break;
    }
    UnmapShard(victim);
    ++stats_.evictions;
  }
  const std::string path = SlabPath(shard);
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  const int64_t bytes = ShardByteSize(sh.begin, sh.end);
  void* base = ::mmap(nullptr, static_cast<size_t>(bytes),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  sh.base = base;
  ++resident_count_;
  ++stats_.map_misses;
  stats_.resident_shards = resident_count_;
  stats_.resident_bytes += bytes;
  return Status::OK();
}

void ShardStore::UnmapShard(int64_t shard) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.base == nullptr) return;
  const int64_t bytes = ShardByteSize(sh.begin, sh.end);
  // MAP_SHARED dirty pages survive the unmap in the page cache; durability
  // and checksums are re-established by Seal().
  ::munmap(sh.base, static_cast<size_t>(bytes));
  sh.base = nullptr;
  --resident_count_;
  stats_.resident_shards = resident_count_;
  stats_.resident_bytes -= bytes;
}

Result<char*> ShardStore::Acquire(int64_t shard) {
  came::MutexLock lock(&mu_);
  return AcquireLocked(shard);
}

Result<char*> ShardStore::AcquireLocked(int64_t shard) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.base == nullptr) {
    CAME_RETURN_IF_ERROR(MapShard(shard));
  } else {
    ++stats_.map_hits;
  }
  sh.last_use = ++clock_;
  return static_cast<char*>(sh.base);
}

char* ShardStore::AcquirePanel(int64_t begin, int64_t end,
                               int64_t* shard_out) {
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LE(end, rows_);
  const int64_t shard = ShardIndex(begin);
  CAME_CHECK_LE(end, shards_[static_cast<size_t>(shard)].end)
      << "panel crosses a shard boundary";
  Result<char*> base = Acquire(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  *shard_out = shard;
  return base.value();
}

int64_t ShardStore::PinPanel(int64_t begin, int64_t end) {
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LE(end, rows_);
  const int64_t shard = ShardIndex(begin);
  CAME_CHECK_LE(end, shards_[static_cast<size_t>(shard)].end)
      << "panel crosses a shard boundary";
  came::MutexLock lock(&mu_);
  Result<char*> base = AcquireLocked(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  ++shards_[static_cast<size_t>(shard)].pins;
  return shard;
}

void ShardStore::UnpinPanel(int64_t shard) {
  CAME_CHECK_GE(shard, 0);
  CAME_CHECK_LT(shard, num_shards());
  came::MutexLock lock(&mu_);
  Shard& sh = shards_[static_cast<size_t>(shard)];
  CAME_CHECK_GT(sh.pins, 0) << "unbalanced UnpinPanel";
  --sh.pins;
}

bool ShardStore::ShardResident(int64_t shard) const {
  CAME_CHECK_GE(shard, 0);
  CAME_CHECK_LT(shard, num_shards());
  came::MutexLock lock(&mu_);
  return shards_[static_cast<size_t>(shard)].base != nullptr;
}

const float* ShardStore::Row(int64_t r) {
  CAME_CHECK(dtype_ == ShardDtype::kF32)
      << "fp32 row access on a " << ShardDtypeName(dtype_) << " store";
  CAME_CHECK_GE(r, 0);
  CAME_CHECK_LT(r, rows_);
  const int64_t shard = ShardIndex(r);
  Result<char*> base = Acquire(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  return reinterpret_cast<const float*>(base.value()) +
         (r - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

float* ShardStore::MutableRow(int64_t r) {
  CAME_CHECK(dtype_ == ShardDtype::kF32)
      << "quantized stores are immutable (dtype " << ShardDtypeName(dtype_)
      << ")";
  CAME_CHECK_GE(r, 0);
  CAME_CHECK_LT(r, rows_);
  const int64_t shard = ShardIndex(r);
  Result<char*> base = Acquire(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  Shard& sh = shards_[static_cast<size_t>(shard)];
  sh.dirty = true;
  // Any bound computed before this write may now be an under-estimate;
  // drop back to the never-prune state until the next Seal recomputes.
  bounds_ = PanelBoundTable();
  if (sealed_ && !in_ram()) {
    // First mutation of a sealed store: publish an unsealed manifest so a
    // crash mid-update reads as "unsealed" rather than passing stale CRCs.
    const Status st = WriteManifest(/*sealed=*/false);
    CAME_CHECK(st.ok()) << st.ToString();
  }
  return reinterpret_cast<float*>(base.value()) + (r - sh.begin) * dim_;
}

const float* ShardStore::PanelRows(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kF32)
      << "fp32 panel access on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  return reinterpret_cast<const float*>(base) +
         (begin - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

const int8_t* ShardStore::QuantPanelRows(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kInt8)
      << "int8 panel access on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  return reinterpret_cast<const int8_t*>(base) +
         (begin - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

const float* ShardStore::PanelScales(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kInt8)
      << "row scales on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  const char* scales = base + PadTo64((sh.end - sh.begin) * dim_);
  return reinterpret_cast<const float*>(scales) + (begin - sh.begin);
}

const uint16_t* ShardStore::Bf16PanelRows(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kBf16)
      << "bf16 panel access on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  return reinterpret_cast<const uint16_t*>(base) +
         (begin - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

int64_t ShardStore::ShardEnd(int64_t row) const {
  CAME_CHECK_GE(row, 0);
  CAME_CHECK_LT(row, rows_);
  return shards_[static_cast<size_t>(ShardIndex(row))].end;
}

Status ShardStore::Seal() {
  if (in_ram()) return ComputeBounds();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    const int64_t bytes = ShardByteSize(sh.begin, sh.end);
    if (sh.base != nullptr) {
      if (::msync(sh.base, static_cast<size_t>(bytes), MS_SYNC) != 0) {
        return Status::IOError("msync " + SlabPath(static_cast<int64_t>(i)) +
                               ": " + std::strerror(errno));
      }
      sh.crc = io::Crc32(sh.base, static_cast<size_t>(bytes));
    } else {
      // Evicted dirty pages live in the page cache; fsync makes them
      // durable, then a transient mapping yields the checksum.
      const std::string path = SlabPath(static_cast<int64_t>(i));
      const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        return Status::IOError("open " + path + ": " + std::strerror(errno));
      }
      if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::IOError("fsync " + path + ": " + std::strerror(err));
      }
      ::close(fd);
      Result<uint32_t> crc = SlabFileCrc(path, bytes);
      if (!crc.ok()) return crc.status();
      sh.crc = crc.value();
    }
    sh.dirty = false;
  }
  // Bounds stream through the panel accessors, which take mu_ themselves —
  // compute them before (and outside) the manifest publish.
  CAME_RETURN_IF_ERROR(ComputeBounds());
  return WriteManifest(/*sealed=*/true);
}

uint32_t ShardStore::ContentCrc32() {
  uint32_t crc = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = shards_[i];
    int64_t shard = 0;
    // Raw slab bytes, not PanelRows: the hash covers whatever encoding
    // the store carries (for fp32 that is the same bytes as before).
    const char* base = AcquirePanel(sh.begin, sh.end, &shard);
    crc = io::Crc32(
        base, static_cast<size_t>(ShardByteSize(sh.begin, sh.end)), crc);
  }
  return crc;
}

ShardStore::Stats ShardStore::GetStats() const {
  came::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace came::tensor
