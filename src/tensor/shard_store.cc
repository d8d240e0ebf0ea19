#include "tensor/shard_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/io.h"
#include "common/logging.h"
#include "tensor/qgemm.h"

namespace came::tensor {

namespace {

// The manifest is one io container (DESIGN.md §11): magic "CAMESHD1",
// version 3, one MNFT section holding WriteManifest's fields. Version 2
// framed the same fields by hand; Open rejects it by version.
constexpr uint32_t kManifestSections[] = {io::FourCc("MNFT")};
constexpr io::ContainerFormat kManifestFormat{"shard store manifest",
                                              "CAMESHD1", 3,
                                              kManifestSections};

int64_t PadTo64(int64_t n) { return (n + 63) & ~int64_t{63}; }

/// Bytes of one row element in a slab (int8 slabs also carry a scale
/// block after their rows).
int64_t ElementBytes(ShardDtype dtype) {
  switch (dtype) {
    case ShardDtype::kFp32:
      return static_cast<int64_t>(sizeof(float));
    case ShardDtype::kInt8:
      return static_cast<int64_t>(sizeof(int8_t));
    case ShardDtype::kBf16:
      return static_cast<int64_t>(sizeof(uint16_t));
  }
  CAME_CHECK(false) << "unknown shard dtype";
  return 0;
}

std::string ManifestPath(const std::string& dir) { return dir + "/manifest"; }

/// Creates `dir` if needed; a directory that already holds a store is
/// InvalidArgument.
Status MakeStoreDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::stat(ManifestPath(dir).c_str(), &st) == 0) {
    return Status::InvalidArgument(dir +
                                   " already holds a shard store manifest");
  }
  return Status::OK();
}

}  // namespace

std::string ShardDtypeName(ShardDtype dtype) {
  switch (dtype) {
    case ShardDtype::kFp32:
      return "fp32";
    case ShardDtype::kInt8:
      return "int8";
    case ShardDtype::kBf16:
      return "bf16";
  }
  return "unknown";
}

int64_t ShardStore::ShardByteSize(int64_t begin, int64_t end) const {
  const int64_t rows = end - begin;
  const int64_t row_bytes = rows * dim_ * ElementBytes(dtype_);
  if (dtype_ != ShardDtype::kInt8) return row_bytes;
  // int8 rows, padded so the per-row fp32 scale block that follows is
  // 64-byte aligned inside the mapping.
  return PadTo64(row_bytes) + rows * static_cast<int64_t>(sizeof(float));
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
  CAME_RETURN_IF_ERROR(MakeStoreDir(dir));
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
  if (options.max_resident_shards < 0) {
    return Status::InvalidArgument("negative shard-store option");
  }
  ShardStore s;
  s.dir_ = dir;
  uint8_t sealed = 0;
  CAME_RETURN_IF_ERROR(io::ReadContainer(
      ManifestPath(dir), kManifestFormat,
      [&s, &sealed, &dir](size_t, io::ByteReader* r) -> Status {
        uint8_t dtype_byte = 0;
        CAME_RETURN_IF_ERROR(r->Get(&dtype_byte));
        if (dtype_byte > static_cast<uint8_t>(ShardDtype::kBf16)) {
          return Status::Corruption(dir + ": unknown slab dtype byte " +
                                    std::to_string(dtype_byte));
        }
        s.dtype_ = static_cast<ShardDtype>(dtype_byte);
        uint64_t n_shards = 0;
        CAME_RETURN_IF_ERROR(r->Get(&s.rows_));
        CAME_RETURN_IF_ERROR(r->Get(&s.dim_));
        CAME_RETURN_IF_ERROR(r->Get(&s.rows_per_shard_));
        CAME_RETURN_IF_ERROR(r->Get(&sealed));
        CAME_RETURN_IF_ERROR(r->Get(&n_shards));
        if (s.rows_ <= 0 || s.dim_ <= 0 || s.rows_per_shard_ <= 0 ||
            n_shards > r->remaining() / sizeof(uint32_t) ||
            static_cast<int64_t>(n_shards) !=
                (s.rows_ + s.rows_per_shard_ - 1) / s.rows_per_shard_) {
          return Status::Corruption(dir +
                                    ": implausible shard store geometry");
        }
        s.shards_.resize(n_shards);
        for (uint64_t i = 0; i < n_shards; ++i) {
          Shard& sh = s.shards_[i];
          sh.begin = static_cast<int64_t>(i) * s.rows_per_shard_;
          sh.end = std::min(s.rows_, sh.begin + s.rows_per_shard_);
          CAME_RETURN_IF_ERROR(r->Get(&sh.crc));
        }
        return Status::OK();
      }));
  if (!sealed) {
    return Status::FailedPrecondition(
        dir + ": store is not sealed (crashed mid-write or still training); "
              "refusing to serve unverifiable data");
  }
  s.sealed_ = true;
  s.max_resident_ = options.max_resident_shards;
  PanelBoundTable bounds(s.rows_, kDefaultBoundBlockRows);
  for (int64_t shard = 0; shard < s.num_shards(); ++shard) {
    Result<uint32_t> crc = s.ScanSlabFile(shard, /*sync=*/false, &bounds);
    if (!crc.ok()) return crc.status();
    if (crc.value() != s.shards_[static_cast<size_t>(shard)].crc) {
      return Status::Corruption(s.SlabPath(shard) + ": slab checksum mismatch");
    }
  }
  // Every slab matched its manifest CRC, so bounds derived from the rows
  // bound exactly the contents that will be served.
  s.bounds_ = std::move(bounds);
  return s;
}

Result<ShardStore> ShardStore::Quantize(ShardStore* src,
                                        const std::string& dir,
                                        ShardDtype dtype,
                                        const ShardStoreOptions& options) {
  if (src == nullptr) {
    return Status::InvalidArgument("Quantize wants a source store");
  }
  if (src->dtype() != ShardDtype::kFp32) {
    return Status::InvalidArgument("Quantize wants an fp32 source store, got " +
                                   ShardDtypeName(src->dtype()));
  }
  if (dtype == ShardDtype::kFp32) {
    return Status::InvalidArgument(
        "Quantize target dtype must be int8 or bf16");
  }
  if (options.max_resident_shards < 0) {
    return Status::InvalidArgument("negative shard-store option");
  }
  const bool in_ram = dir.empty();
  if (!in_ram) CAME_RETURN_IF_ERROR(MakeStoreDir(dir));

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
  // encode them straight into the slab payload (a zero-filled file-bound
  // buffer, or the in-RAM store's own zero-filled anonymous mapping), then
  // scan the payload for its CRC and panel bounds (over the *encoded*
  // values, so the bound is scale-aware rather than inherited from fp32).
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
    const Status st =
        dtype == ShardDtype::kInt8
            ? qgemm::QuantizeRowsInt8(
                  rows, srows, s.dim_, reinterpret_cast<int8_t*>(payload),
                  reinterpret_cast<float*>(payload +
                                           PadTo64(srows * s.dim_)))
            : qgemm::EncodeRowsBf16(rows, srows, s.dim_,
                                    reinterpret_cast<uint16_t*>(payload));
    if (!st.ok()) {
      return Status::InvalidArgument("slab " + std::to_string(i) + ": " +
                                     st.message());
    }
    sh.crc = s.ScanSlab(i, payload, &bounds);
    if (!in_ram) {
      CAME_RETURN_IF_ERROR(io::WriteFileAtomic(s.SlabPath(i), payload, bytes));
    }
  }
  s.bounds_ = std::move(bounds);
  if (in_ram) return s;
  // Slabs and CRCs are durable; publish the sealed manifest directly —
  // a quantized store is never served unsealed.
  CAME_RETURN_IF_ERROR(s.WriteManifest(/*sealed=*/true));
  return s;
}

Status ShardStore::WriteManifest(bool sealed) {
  CAME_RETURN_IF_ERROR(io::WriteContainer(
      ManifestPath(dir_), kManifestFormat,
      [this, sealed](size_t, io::ByteWriter* w) {
        w->Put(static_cast<uint8_t>(dtype_));
        w->Put(rows_);
        w->Put(dim_);
        w->Put(rows_per_shard_);
        w->Put(static_cast<uint8_t>(sealed ? 1 : 0));
        w->Put(static_cast<uint64_t>(shards_.size()));
        for (const Shard& sh : shards_) w->Put(sh.crc);
      }));
  sealed_ = sealed;
  return Status::OK();
}

uint32_t ShardStore::ScanSlab(int64_t shard, const char* payload,
                              PanelBoundTable* bounds) const {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  const int64_t n = sh.end - sh.begin;
  const int64_t row_bytes = dim_ * ElementBytes(dtype_);
  // Every encoding leads with its rows; int8 slabs follow them with the
  // zero pad and the scale block, which the rows' bounds read too.
  const float* scales =
      dtype_ == ShardDtype::kInt8
          ? reinterpret_cast<const float*>(payload + PadTo64(n * row_bytes))
          : nullptr;
  uint32_t crc = 0;
  for (int64_t r0 = 0; r0 < n; r0 += kDefaultBoundBlockRows) {
    const int64_t m = std::min(kDefaultBoundBlockRows, n - r0);
    const char* rows = payload + r0 * row_bytes;
    crc = io::Crc32(rows, static_cast<size_t>(m * row_bytes), crc);
    switch (dtype_) {
      case ShardDtype::kFp32:
        AccountRowsFp32(bounds, reinterpret_cast<const float*>(rows),
                        /*bias=*/nullptr, sh.begin + r0, m, dim_);
        break;
      case ShardDtype::kInt8:
        AccountRowsInt8(bounds, reinterpret_cast<const int8_t*>(rows),
                        scales + r0, /*bias=*/nullptr, sh.begin + r0, m, dim_);
        break;
      case ShardDtype::kBf16:
        AccountRowsBf16(bounds, reinterpret_cast<const uint16_t*>(rows),
                        /*bias=*/nullptr, sh.begin + r0, m, dim_);
        break;
    }
  }
  const int64_t tail = ShardByteSize(sh.begin, sh.end) - n * row_bytes;
  return io::Crc32(payload + n * row_bytes, static_cast<size_t>(tail), crc);
}

Result<uint32_t> ShardStore::ScanSlabFile(int64_t shard, bool sync,
                                          PanelBoundTable* bounds) const {
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  const int64_t bytes = ShardByteSize(sh.begin, sh.end);
  const std::string path = SlabPath(shard);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  // Rows written through a mapping since evicted live in the page cache;
  // fsync makes them durable before the checksum is taken.
  if (sync && ::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fsync " + path + ": " + std::strerror(err));
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
  void* base =
      ::mmap(nullptr, static_cast<size_t>(bytes), PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  const uint32_t crc = ScanSlab(shard, static_cast<const char*>(base), bounds);
  ::munmap(base, static_cast<size_t>(bytes));
  return crc;
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
  // MAP_SHARED writes survive the unmap in the page cache; durability
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

void ShardStore::Unmap() {
  if (in_ram()) return;
  came::MutexLock lock(&mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].pins == 0) UnmapShard(static_cast<int64_t>(i));
  }
}

const float* ShardStore::Row(int64_t r) { return PanelRows(r, r + 1); }

float* ShardStore::MutableRow(int64_t r) {
  CAME_CHECK(dtype_ == ShardDtype::kFp32)
      << "quantized stores are immutable (dtype " << ShardDtypeName(dtype_)
      << ")";
  CAME_CHECK_GE(r, 0);
  CAME_CHECK_LT(r, rows_);
  const int64_t shard = ShardIndex(r);
  Result<char*> base = Acquire(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  const Shard& sh = shards_[static_cast<size_t>(shard)];
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
  CAME_CHECK(dtype_ == ShardDtype::kFp32)
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
  PanelBoundTable bounds(rows_, kDefaultBoundBlockRows);
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    const int64_t shard = static_cast<int64_t>(i);
    if (sh.base != nullptr) {  // always so for in-RAM stores
      const size_t bytes =
          static_cast<size_t>(ShardByteSize(sh.begin, sh.end));
      if (!in_ram() && ::msync(sh.base, bytes, MS_SYNC) != 0) {
        return Status::IOError("msync " + SlabPath(shard) + ": " +
                               std::strerror(errno));
      }
      sh.crc = ScanSlab(shard, static_cast<const char*>(sh.base), &bounds);
    } else {
      Result<uint32_t> crc = ScanSlabFile(shard, /*sync=*/true, &bounds);
      if (!crc.ok()) return crc.status();
      sh.crc = crc.value();
    }
  }
  bounds_ = std::move(bounds);
  if (in_ram()) return Status::OK();
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
