#ifndef CAME_TENSOR_SHARD_STORE_H_
#define CAME_TENSOR_SHARD_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "tensor/panel_bounds.h"

namespace came::tensor {

/// Element encoding of a ShardStore's slab payloads — the one encoding
/// enum of the candidate rows, also the serving layer's score dtype
/// (infer::ScoreDtype, ScoreServerConfig::dtype). Queries and
/// accumulation stay fp32 in every mode; only the row bytes change:
///
///   * kFp32 — 4 bytes/element. The trainer always produces these.
///   * kInt8 — per-row symmetric int8 + one fp32 scale per row
///             (~1 byte/element); scores come from exact int32 dots
///             scaled back to fp32 (tensor::qgemm).
///   * kBf16 — truncated fp32, 2 bytes/element; panels decode to fp32
///             and reuse the fp32 GEMM.
///
/// kInt8/kBf16 stores are derived from an fp32 store via
/// ShardStore::Quantize and are immutable (serving-only). The value is
/// the manifest's dtype byte.
enum class ShardDtype : uint8_t { kFp32 = 0, kInt8 = 1, kBf16 = 2 };

/// "fp32" | "int8" | "bf16".
std::string ShardDtypeName(ShardDtype dtype);

/// Residency policy for a ShardStore.
struct ShardStoreOptions {
  /// Rows per on-disk slab. 0 means one slab covering every row — the
  /// in-RAM special case expressed in the same layout.
  int64_t rows_per_shard = 0;
  /// Maximum simultaneously mapped slabs (the LRU-resident working set).
  /// 0 means unlimited (everything stays mapped once touched). Pinned
  /// slabs (PinPanel) never count as eviction victims, so concurrent
  /// readers can push residency transiently past the budget.
  int64_t max_resident_shards = 0;
};

/// A 2-D float row table `[rows, dim]` sliced into fixed-size on-disk
/// slabs, mmap-backed with an LRU-resident working set — the storage
/// layer that lets embedding tables, Adam moment state, and candidate
/// matrices grow past RAM.
///
/// Layout on disk (`dir/`):
///   * `manifest` — one io binary container (magic "CAMESHD1", version
///     3; DESIGN.md §8), published atomically, one layout for every
///     dtype: dtype byte, shape, slab geometry, a sealed flag, and one
///     payload CRC32 per slab.
///   * `slab_<i>.bin` — raw little-endian payload of rows
///     [i*rows_per_shard, min((i+1)*rows_per_shard, rows)), no header,
///     so a mapped slab is directly addressable at element alignment.
///     fp32/bf16 slabs are the bare row data; int8 slabs are the int8
///     rows, zero-padded to a 64-byte boundary, followed by one fp32
///     dequantization scale per row (the padding keeps the scale block
///     float-aligned inside the mapping).
///
/// Nothing else is persisted: the per-block PanelBoundTable the serving
/// layer's panel pruning uses is always computed from the rows.
///
/// One slab scan decides both: a single read of a slab's payload yields
/// its CRC32 and folds its rows into the bound table. `Seal`, `Open` and
/// `Quantize` all run it; `Seal` and `Open` leave the residency set alone.
///
/// Lifecycle: `Create` makes zero-filled slabs and an *unsealed*
/// manifest; mutate rows freely; `Seal()` msyncs the mapped slabs, scans
/// every slab (resident ones through their mapping, evicted ones through
/// a transient mapping after fsync) and atomically publishes the sealed
/// manifest. `Open` accepts sealed stores only and scans every slab
/// through a transient mapping, so a bit-flipped, truncated, or
/// trailing-garbage slab or manifest surfaces as `Corruption` instead of
/// being served; it keeps the bounds only when every CRC matched.
///
/// `InRam` builds the one-shard special case — a single anonymous
/// mapping, always resident, no files — through the identical row/panel
/// access path, which is what makes sharded-vs-in-RAM bitwise parity a
/// property of the layout rather than of duplicated compute code.
///
/// Thread safety: the residency machinery (map/unmap, LRU clock, pins,
/// stats) is guarded by an internal mutex, so the read-side accessors —
/// Row, PanelRows and the quantized panel accessors, PinPanel/UnpinPanel,
/// ShardEnd, bounds(), GetStats — may be called from concurrent threads.
/// A returned panel pointer is only guaranteed to outlive subsequent
/// accessor calls from *other* threads while the caller holds a pin on
/// its shard (PinPanel); a single-threaded caller keeps the historical
/// contract (valid until its own next call that can evict). Mutation —
/// MutableRow, Seal, Quantize, ContentCrc32, move construction — still
/// requires external serialisation with no concurrent readers.
class ShardStore {
 public:
  ShardStore() = default;
  ~ShardStore();
  ShardStore(ShardStore&& other) noexcept;
  ShardStore& operator=(ShardStore&& other) noexcept;
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  /// Anonymous in-RAM store: one shard, always resident, zero-filled.
  static Result<ShardStore> InRam(int64_t rows, int64_t dim);

  /// Creates `dir` (must not already hold a manifest) with zero-filled
  /// slabs and an unsealed manifest.
  static Result<ShardStore> Create(const std::string& dir, int64_t rows,
                                   int64_t dim,
                                   const ShardStoreOptions& options = {});

  /// Opens a sealed store, verifying every slab's CRC and computing the
  /// panel bounds from the verified rows; maps no slab into the residency
  /// set. `options.rows_per_shard` is ignored (the manifest fixes the
  /// geometry); the residency budget applies to later accesses.
  static Result<ShardStore> Open(const std::string& dir,
                                 const ShardStoreOptions& options = {});

  /// Re-encodes a sealed-or-unsealed fp32 store's rows into a new
  /// *sealed* quantized store at `dir` (must not already hold a
  /// manifest), streaming shard by shard so peak memory is one slab. An
  /// empty `dir` builds the store in RAM instead: one always-resident
  /// anonymous mapping per shard, same slab layout, no files. The
  /// geometry (rows_per_shard) is inherited from `src`. `dtype` must be
  /// kInt8 or kBf16; rows containing NaN/Inf are rejected with
  /// InvalidArgument. The result is immutable: MutableRow and the fp32
  /// accessors CHECK-fail on it.
  static Result<ShardStore> Quantize(ShardStore* src, const std::string& dir,
                                     ShardDtype dtype,
                                     const ShardStoreOptions& options = {});

  int64_t rows() const { return rows_; }
  int64_t dim() const { return dim_; }
  ShardDtype dtype() const { return dtype_; }
  int64_t rows_per_shard() const { return rows_per_shard_; }
  int64_t num_shards() const { return static_cast<int64_t>(shards_.size()); }
  bool in_ram() const { return dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Read access to row `r` (fp32 stores only). May fault the owning
  /// slab in (and evict the least-recently-used unpinned one).
  const float* Row(int64_t r) CAME_EXCLUDES(mu_);
  /// Write access (fp32 stores only). The slab CRCs are stale until the
  /// next Seal, and the panel bounds are dropped (they no longer bound the
  /// mutated contents).
  float* MutableRow(int64_t r) CAME_EXCLUDES(mu_);

  /// Contiguous rows [begin, end), which must not cross a slab boundary
  /// (use ShardEnd to clamp panels). Zero-copy into the mapping. fp32
  /// stores only — quantized stores serve the accessors below.
  const float* PanelRows(int64_t begin, int64_t end) CAME_EXCLUDES(mu_);

  /// int8 rows [begin, end) of a kInt8 store (same boundary and lifetime
  /// contract as PanelRows).
  const int8_t* QuantPanelRows(int64_t begin, int64_t end)
      CAME_EXCLUDES(mu_);
  /// Per-row fp32 dequantization scales for rows [begin, end) of a kInt8
  /// store, indexed panel-locally. Lives in the same mapping as
  /// QuantPanelRows for the same range, so both pointers are usable
  /// together.
  const float* PanelScales(int64_t begin, int64_t end) CAME_EXCLUDES(mu_);
  /// bf16 rows [begin, end) of a kBf16 store.
  const uint16_t* Bf16PanelRows(int64_t begin, int64_t end)
      CAME_EXCLUDES(mu_);

  /// Maps the slab owning rows [begin, end) (which must not cross a slab
  /// boundary) and pins it against eviction; returns the shard index to
  /// hand back to UnpinPanel. While pinned, pointers into the slab stay
  /// valid across accessor calls from other threads. Pins nest.
  int64_t PinPanel(int64_t begin, int64_t end) CAME_EXCLUDES(mu_);
  void UnpinPanel(int64_t shard) CAME_EXCLUDES(mu_);

  /// Whether `shard`'s slab is currently mapped (tests/observability and
  /// the trainer's resident-first sweep order).
  bool ShardResident(int64_t shard) const CAME_EXCLUDES(mu_);

  /// Unmaps every unpinned slab of a file-backed store, so a table that
  /// sits idle stops counting in RSS; written rows stay in the page cache
  /// (as after an eviction) and the next access maps the slab again. Not
  /// an eviction: only resident_shards/resident_bytes move. No-op for
  /// in-RAM stores, whose anonymous mappings hold the only copy.
  void Unmap() CAME_EXCLUDES(mu_);

  /// Per-block score-bound metadata over the store's rows (no bias —
  /// shard-backed serving is inner-product only). Empty — meaning "never
  /// prune" — until Seal(), Quantize or Open computes it; MutableRow
  /// drops it. Do not call concurrently with mutation.
  const PanelBoundTable& bounds() const { return bounds_; }

  /// Exclusive end of the slab containing `row` (clamped to rows()).
  int64_t ShardEnd(int64_t row) const;

  /// msync the mapped slabs, rescan every slab for its CRC and panel
  /// bounds, and atomically publish a sealed manifest; leaves residency
  /// alone. In-RAM stores: scans only (no files). Idempotent.
  Status Seal() CAME_EXCLUDES(mu_);

  /// Row-order CRC32 over the full table contents (parity tests and the
  /// checkpoint-bytes comparison). Streams shard by shard.
  uint32_t ContentCrc32() CAME_EXCLUDES(mu_);

  struct Stats {
    int64_t map_hits = 0;
    int64_t map_misses = 0;
    int64_t evictions = 0;
    /// Victim scans that found every resident slab pinned and had to map
    /// past the residency budget instead of evicting.
    int64_t pin_blocked_evictions = 0;
    int64_t resident_shards = 0;
    int64_t resident_bytes = 0;
  };
  Stats GetStats() const CAME_EXCLUDES(mu_);

 private:
  struct Shard {
    // Residency fields (base, last_use, pins) are guarded by mu_; the
    // analysis cannot express per-element guards through the vector.
    void* base = nullptr;   // mapped payload (nullptr when not resident)
    int64_t begin = 0;      // first row (immutable after construction)
    int64_t end = 0;        // one past the last row (immutable)
    uint64_t last_use = 0;  // LRU clock stamp
    int64_t pins = 0;       // PinPanel leases blocking eviction
    uint32_t crc = 0;       // manifest payload CRC (sealed stores)
  };

  int64_t ShardIndex(int64_t row) const { return row / rows_per_shard_; }
  std::string SlabPath(int64_t shard) const;
  /// On-disk slab bytes for rows [begin, end) under this store's dtype
  /// (int8 slabs include the padded scale block).
  int64_t ShardByteSize(int64_t begin, int64_t end) const;
  /// Ensures the shard is mapped; returns its payload base.
  Result<char*> Acquire(int64_t shard) CAME_EXCLUDES(mu_);
  Result<char*> AcquireLocked(int64_t shard) CAME_REQUIRES(mu_);
  /// Acquire + CHECK-on-IO-failure, with the panel bounds checks shared
  /// by every panel accessor. Returns the mapped slab base and (via
  /// `shard_out`) the owning shard index.
  char* AcquirePanel(int64_t begin, int64_t end, int64_t* shard_out)
      CAME_EXCLUDES(mu_);
  Status MapShard(int64_t shard) CAME_REQUIRES(mu_);
  /// Backs `shard` with a zero-filled, always-resident anonymous mapping
  /// (in-RAM stores).
  Status MapAnonymous(int64_t shard) CAME_EXCLUDES(mu_);
  void UnmapShard(int64_t shard) CAME_REQUIRES(mu_);
  Status WriteManifest(bool sealed);
  /// The one slab scan: the CRC32 of `shard`'s slab payload at `payload`,
  /// folding its rows into `bounds` while each block of rows is in cache.
  uint32_t ScanSlab(int64_t shard, const char* payload,
                    PanelBoundTable* bounds) const;
  /// ScanSlab over a transient read-only mapping of `shard`'s slab file,
  /// which leaves the residency set alone; `sync` fsyncs the file first.
  /// Corruption when the file is not exactly the slab's size.
  Result<uint32_t> ScanSlabFile(int64_t shard, bool sync,
                                PanelBoundTable* bounds) const;
  void MoveFrom(ShardStore&& other);
  void ReleaseAll();

  std::string dir_;
  int64_t rows_ = 0;
  int64_t dim_ = 0;
  ShardDtype dtype_ = ShardDtype::kFp32;
  int64_t rows_per_shard_ = 0;
  int64_t max_resident_ = 0;
  bool sealed_ = false;
  /// Guards the residency machinery: the LRU clock, resident count,
  /// stats, and every Shard's base/last_use/pins.
  mutable came::Mutex mu_;
  uint64_t clock_ CAME_GUARDED_BY(mu_) = 0;
  int64_t resident_count_ CAME_GUARDED_BY(mu_) = 0;
  std::vector<Shard> shards_;
  Stats stats_ CAME_GUARDED_BY(mu_);
  PanelBoundTable bounds_;
};

}  // namespace came::tensor

#endif  // CAME_TENSOR_SHARD_STORE_H_
