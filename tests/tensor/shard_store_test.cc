#include "tensor/shard_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/io.h"
#include "tensor/qgemm.h"

namespace came::tensor {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/shard_store_" + name + "_" +
                          std::to_string(::getpid());
  // Fresh directory per test: drop any leftovers from a previous run.
  std::filesystem::remove_all(dir);
  return dir;
}

// The file names in `dir`, sorted.
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// What a sealed store of `num_shards` slabs holds on disk, sorted.
std::vector<std::string> StoreFiles(int64_t num_shards) {
  std::vector<std::string> names = {"manifest"};
  for (int64_t i = 0; i < num_shards; ++i) {
    names.push_back("slab_" + std::to_string(i) + ".bin");
  }
  std::sort(names.begin(), names.end());
  return names;
}

float RowValue(int64_t row, int64_t col) {
  return static_cast<float>(row) * 1000.0f + static_cast<float>(col) + 0.25f;
}

void FillStore(ShardStore* s) {
  for (int64_t r = 0; r < s->rows(); ++r) {
    float* row = s->MutableRow(r);
    for (int64_t c = 0; c < s->dim(); ++c) row[c] = RowValue(r, c);
  }
}

void ExpectStoreContents(ShardStore* s) {
  for (int64_t r = 0; r < s->rows(); ++r) {
    const float* row = s->Row(r);
    for (int64_t c = 0; c < s->dim(); ++c) {
      ASSERT_EQ(row[c], RowValue(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(ShardStoreTest, InRamRoundTrip) {
  Result<ShardStore> s = ShardStore::InRam(17, 5);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(s.value().in_ram());
  EXPECT_EQ(s.value().num_shards(), 1);
  EXPECT_EQ(s.value().rows_per_shard(), 17);
  FillStore(&s.value());
  ExpectStoreContents(&s.value());
  // Zero-filled at construction: untouched store reads zeros.
  Result<ShardStore> z = ShardStore::InRam(4, 3);
  ASSERT_TRUE(z.ok());
  for (int64_t r = 0; r < 4; ++r) {
    const float* row = z.value().Row(r);
    for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(row[c], 0.0f);
  }
}

TEST(ShardStoreTest, RejectsDegenerateShapes) {
  EXPECT_FALSE(ShardStore::InRam(0, 4).ok());
  EXPECT_FALSE(ShardStore::InRam(4, 0).ok());
  EXPECT_FALSE(ShardStore::Create(TestDir("degenerate"), -1, 4).ok());
}

TEST(ShardStoreTest, CreateWriteSealOpenRoundTrip) {
  const std::string dir = TestDir("roundtrip");
  ShardStoreOptions opts;
  opts.rows_per_shard = 16;
  opts.max_resident_shards = 2;
  Result<ShardStore> created = ShardStore::Create(dir, 100, 8, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardStore& s = created.value();
  EXPECT_EQ(s.num_shards(), 7);  // ceil(100 / 16)
  EXPECT_FALSE(s.in_ram());
  FillStore(&s);
  ExpectStoreContents(&s);
  // The residency budget was honoured: writing 7 shards through 2 slots
  // must have evicted.
  EXPECT_LE(s.GetStats().resident_shards, 2);
  EXPECT_GT(s.GetStats().evictions, 0);
  ASSERT_TRUE(s.Seal().ok());
  ASSERT_FALSE(s.bounds().empty());
  EXPECT_EQ(ListDir(dir), StoreFiles(7));

  ShardStoreOptions open_opts;
  open_opts.max_resident_shards = 3;
  Result<ShardStore> reopened = ShardStore::Open(dir, open_opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().rows(), 100);
  EXPECT_EQ(reopened.value().dim(), 8);
  EXPECT_EQ(reopened.value().rows_per_shard(), 16);
  // Open derives the bounds from the verified slabs, through a residency
  // budget below the shard count.
  ASSERT_FALSE(reopened.value().bounds().empty());
  EXPECT_EQ(reopened.value().bounds(), s.bounds());
  ExpectStoreContents(&reopened.value());
  EXPECT_LE(reopened.value().GetStats().resident_shards, 3);
}

// Open and Seal scan slabs through transient mappings: neither maps a slab
// into the residency set nor evicts one.
TEST(ShardStoreTest, OpenMapsNoSlabIntoTheResidencySet) {
  const std::string dir = TestDir("open_residency");
  ShardStoreOptions opts;
  opts.rows_per_shard = 8;
  Result<ShardStore> created = ShardStore::Create(dir, 30, 4, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  FillStore(&created.value());
  ASSERT_TRUE(created.value().Seal().ok());

  ShardStoreOptions open_opts;
  open_opts.max_resident_shards = 2;
  Result<ShardStore> opened = ShardStore::Open(dir, open_opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardStore::Stats stats = opened.value().GetStats();
  EXPECT_EQ(stats.map_misses, 0);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.resident_shards, 0);
  for (int64_t i = 0; i < opened.value().num_shards(); ++i) {
    EXPECT_FALSE(opened.value().ShardResident(i)) << "shard " << i;
  }
  EXPECT_EQ(opened.value().bounds(), created.value().bounds());
}

TEST(ShardStoreTest, SealOverEvictedSlabsLeavesResidencyAlone) {
  ShardStoreOptions tight;
  tight.rows_per_shard = 8;
  tight.max_resident_shards = 2;
  Result<ShardStore> evicting =
      ShardStore::Create(TestDir("seal_evicted"), 30, 4, tight);
  ShardStoreOptions unlimited;
  unlimited.rows_per_shard = 8;
  Result<ShardStore> resident =
      ShardStore::Create(TestDir("seal_resident"), 30, 4, unlimited);
  ASSERT_TRUE(evicting.ok() && resident.ok());
  FillStore(&evicting.value());
  FillStore(&resident.value());
  ASSERT_GT(evicting.value().GetStats().evictions, 0);  // slabs 0 and 1 out

  const ShardStore::Stats before = evicting.value().GetStats();
  std::vector<bool> was_resident;
  for (int64_t i = 0; i < evicting.value().num_shards(); ++i) {
    was_resident.push_back(evicting.value().ShardResident(i));
  }
  ASSERT_TRUE(evicting.value().Seal().ok());
  const ShardStore::Stats after = evicting.value().GetStats();
  EXPECT_EQ(after.map_misses, before.map_misses);
  EXPECT_EQ(after.evictions, before.evictions);
  for (int64_t i = 0; i < evicting.value().num_shards(); ++i) {
    EXPECT_EQ(evicting.value().ShardResident(i), was_resident[i])
        << "shard " << i;
  }

  ASSERT_TRUE(resident.value().Seal().ok());
  ASSERT_FALSE(evicting.value().bounds().empty());
  EXPECT_EQ(evicting.value().bounds(), resident.value().bounds());
}

TEST(ShardStoreTest, OpenRejectsNegativeResidencyBudget) {
  const std::string dir = TestDir("open_negative");
  Result<ShardStore> created = ShardStore::Create(dir, 8, 2);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(created.value().Seal().ok());
  ShardStoreOptions opts;
  opts.max_resident_shards = -1;
  Result<ShardStore> opened = ShardStore::Open(dir, opts);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(ShardStore::Open(dir).ok());
}

TEST(ShardStoreTest, ZeroRowsPerShardMeansSingleShard) {
  const std::string dir = TestDir("single");
  Result<ShardStore> s = ShardStore::Create(dir, 33, 4);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s.value().num_shards(), 1);
  EXPECT_EQ(s.value().rows_per_shard(), 33);
  EXPECT_EQ(s.value().ShardEnd(0), 33);
}

TEST(ShardStoreTest, PanelAccessRespectsShardBoundaries) {
  const std::string dir = TestDir("panels");
  ShardStoreOptions opts;
  opts.rows_per_shard = 10;
  Result<ShardStore> created = ShardStore::Create(dir, 25, 3, opts);
  ASSERT_TRUE(created.ok());
  ShardStore& s = created.value();
  FillStore(&s);
  EXPECT_EQ(s.ShardEnd(0), 10);
  EXPECT_EQ(s.ShardEnd(9), 10);
  EXPECT_EQ(s.ShardEnd(10), 20);
  EXPECT_EQ(s.ShardEnd(24), 25);  // last shard is short
  const float* panel = s.PanelRows(10, 20);
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(panel[r * 3 + c], RowValue(10 + r, c));
    }
  }
#if GTEST_HAS_DEATH_TEST
  EXPECT_DEATH(s.PanelRows(5, 15), "crosses a shard boundary");
#endif
}

TEST(ShardStoreTest, LruEvictsLeastRecentlyUsed) {
  const std::string dir = TestDir("lru");
  ShardStoreOptions opts;
  opts.rows_per_shard = 4;
  opts.max_resident_shards = 2;
  Result<ShardStore> created = ShardStore::Create(dir, 16, 2, opts);
  ASSERT_TRUE(created.ok());
  ShardStore& s = created.value();
  (void)s.Row(0);   // shard 0 resident
  (void)s.Row(4);   // shard 1 resident
  (void)s.Row(0);   // refresh shard 0
  (void)s.Row(8);   // shard 2 -> evicts shard 1 (the LRU)
  const auto before = s.GetStats();
  (void)s.Row(0);   // still resident: a hit, no new mapping
  const auto after = s.GetStats();
  EXPECT_EQ(after.map_misses, before.map_misses);
  EXPECT_EQ(after.map_hits, before.map_hits + 1);
  EXPECT_EQ(after.resident_shards, 2);
  EXPECT_EQ(after.evictions, 1);
}

TEST(ShardStoreTest, LruEvictionOrderIsObservableViaResidency) {
  const std::string dir = TestDir("lru_order");
  ShardStoreOptions opts;
  opts.rows_per_shard = 4;
  opts.max_resident_shards = 2;
  Result<ShardStore> created = ShardStore::Create(dir, 20, 2, opts);
  ASSERT_TRUE(created.ok());
  ShardStore& s = created.value();
  (void)s.PanelRows(0, 4);    // shard 0
  (void)s.PanelRows(4, 8);    // shard 1
  EXPECT_TRUE(s.ShardResident(0));
  EXPECT_TRUE(s.ShardResident(1));
  (void)s.PanelRows(8, 12);   // shard 2 -> evicts 0 (oldest)
  EXPECT_FALSE(s.ShardResident(0));
  EXPECT_TRUE(s.ShardResident(1));
  EXPECT_TRUE(s.ShardResident(2));
  (void)s.Row(4);             // refresh shard 1 past shard 2
  (void)s.PanelRows(12, 16);  // shard 3 -> evicts 2, NOT the refreshed 1
  EXPECT_TRUE(s.ShardResident(1));
  EXPECT_FALSE(s.ShardResident(2));
  EXPECT_TRUE(s.ShardResident(3));
  EXPECT_EQ(s.GetStats().evictions, 2);
  EXPECT_EQ(s.GetStats().resident_shards, 2);
}

TEST(ShardStoreTest, PinLeaseBlocksEvictionUntilReleased) {
  const std::string dir = TestDir("pins");
  ShardStoreOptions opts;
  opts.rows_per_shard = 4;
  opts.max_resident_shards = 1;
  Result<ShardStore> created = ShardStore::Create(dir, 12, 2, opts);
  ASSERT_TRUE(created.ok());
  ShardStore& s = created.value();
  FillStore(&s);  // evicts while filling; only deltas matter below
  const int64_t lease = s.PinPanel(0, 4);  // shard 0 pinned (maps it first)
  EXPECT_EQ(lease, 0);
  const int64_t evictions_after_pin = s.GetStats().evictions;
  // Shard 1 needs a slot but the only resident slab is pinned: the store
  // must map past the budget instead of invalidating the lease.
  (void)s.PanelRows(4, 8);
  EXPECT_TRUE(s.ShardResident(0));
  EXPECT_TRUE(s.ShardResident(1));
  ShardStore::Stats stats = s.GetStats();
  EXPECT_EQ(stats.evictions, evictions_after_pin);
  EXPECT_GT(stats.pin_blocked_evictions, 0);
  EXPECT_EQ(stats.resident_shards, 2);
  // Pinned pointers stay valid across the over-budget mapping.
  const float* pinned = s.PanelRows(0, 4);
  EXPECT_EQ(pinned[0], RowValue(0, 0));

  s.UnpinPanel(lease);
  // With the lease gone the next miss reclaims down to the budget.
  (void)s.PanelRows(8, 12);
  stats = s.GetStats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.resident_shards, 1);
  EXPECT_TRUE(s.ShardResident(2));
  EXPECT_FALSE(s.ShardResident(0));
  EXPECT_FALSE(s.ShardResident(1));
}

TEST(ShardStoreTest, NestedPinsMustAllReleaseBeforeEviction) {
  const std::string dir = TestDir("nested_pins");
  ShardStoreOptions opts;
  opts.rows_per_shard = 4;
  opts.max_resident_shards = 1;
  Result<ShardStore> created = ShardStore::Create(dir, 12, 2, opts);
  ASSERT_TRUE(created.ok());
  ShardStore& s = created.value();
  const int64_t a = s.PinPanel(0, 4);
  const int64_t b = s.PinPanel(0, 4);  // pins nest
  s.UnpinPanel(a);
  (void)s.PanelRows(4, 8);  // one lease still held: no eviction of 0
  EXPECT_TRUE(s.ShardResident(0));
  s.UnpinPanel(b);
  // Next miss (shard 2) reclaims down to the budget of 1: both earlier
  // slabs — the formerly pinned 0 included — are now fair victims.
  (void)s.PanelRows(8, 12);
  EXPECT_GT(s.GetStats().evictions, 0);
  EXPECT_FALSE(s.ShardResident(0));
  EXPECT_TRUE(s.ShardResident(2));
}

TEST(ShardStoreTest, UnmapDropsUnpinnedSlabsAndKeepsTheirRows) {
  const std::string dir = TestDir("unmap");
  ShardStoreOptions opts;
  opts.rows_per_shard = 4;
  opts.max_resident_shards = 3;
  Result<ShardStore> created = ShardStore::Create(dir, 12, 3, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardStore& s = created.value();
  FillStore(&s);
  // Bit patterns a value-level compare would blur: -0, a denormal and a
  // NaN with a payload.
  const uint32_t bits[3] = {0x80000000u, 0x00000001u, 0x7fc01234u};
  std::memcpy(s.MutableRow(5), bits, sizeof(bits));
  const int64_t lease = s.PinPanel(8, 12);
  for (int64_t i = 0; i < s.num_shards(); ++i) {
    ASSERT_TRUE(s.ShardResident(i)) << "shard " << i;
  }
  const ShardStore::Stats before = s.GetStats();
  ASSERT_EQ(before.resident_shards, 3);

  s.Unmap();
  EXPECT_FALSE(s.ShardResident(0));
  EXPECT_FALSE(s.ShardResident(1));
  EXPECT_TRUE(s.ShardResident(2)) << "a pinned slab must stay mapped";
  ShardStore::Stats after = s.GetStats();
  EXPECT_EQ(after.resident_shards, 1);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes / 3);
  EXPECT_EQ(after.evictions, before.evictions) << "Unmap is not an eviction";
  s.UnpinPanel(lease);

  // The written rows come back bit for bit through a fresh mapping.
  EXPECT_EQ(std::memcmp(s.Row(5), bits, sizeof(bits)), 0);
  for (int64_t r = 0; r < s.rows(); ++r) {
    if (r == 5) continue;
    const float* row = s.Row(r);
    for (int64_t c = 0; c < s.dim(); ++c) {
      ASSERT_EQ(row[c], RowValue(r, c)) << "row " << r << " col " << c;
    }
  }
  EXPECT_GT(s.GetStats().map_misses, after.map_misses);
}

TEST(ShardStoreTest, UnmapIsANoOpInRam) {
  Result<ShardStore> s = ShardStore::InRam(10, 4);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  FillStore(&s.value());
  const ShardStore::Stats before = s.value().GetStats();
  s.value().Unmap();
  const ShardStore::Stats after = s.value().GetStats();
  EXPECT_TRUE(s.value().ShardResident(0));
  EXPECT_EQ(after.resident_shards, before.resident_shards);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  ExpectStoreContents(&s.value());
}

TEST(ShardStoreTest, QuantizedAccessorsShareTheLruClock) {
  // Interleaved QuantPanelRows / PanelScales touches must refresh the
  // same residency clock as fp32 PanelRows, so eviction order reflects
  // true recency across accessor kinds.
  const std::string f32_dir = TestDir("qclock_f32");
  ShardStoreOptions opts;
  opts.rows_per_shard = 4;
  Result<ShardStore> created = ShardStore::Create(f32_dir, 16, 2, opts);
  ASSERT_TRUE(created.ok());
  FillStore(&created.value());
  ASSERT_TRUE(created.value().Seal().ok());

  ShardStoreOptions qopts;
  qopts.max_resident_shards = 2;
  Result<ShardStore> quantized = ShardStore::Quantize(
      &created.value(), TestDir("qclock_int8"), ShardDtype::kInt8, qopts);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  ShardStore q = std::move(quantized).value();
  // Quantize sweeps every shard; start from a known residency state.
  (void)q.QuantPanelRows(0, 4);    // shard 0
  (void)q.PanelScales(4, 8);       // shard 1
  (void)q.QuantPanelRows(0, 4);    // refresh 0 via the codes accessor
  (void)q.PanelScales(8, 12);      // shard 2 -> evicts 1, not refreshed 0
  EXPECT_TRUE(q.ShardResident(0));
  EXPECT_FALSE(q.ShardResident(1));
  EXPECT_TRUE(q.ShardResident(2));
}

TEST(ShardStoreTest, ContentCrcIndependentOfGeometry) {
  const std::string dir_a = TestDir("crc_a");
  const std::string dir_b = TestDir("crc_b");
  ShardStoreOptions a_opts;
  a_opts.rows_per_shard = 7;
  a_opts.max_resident_shards = 1;
  Result<ShardStore> a = ShardStore::Create(dir_a, 40, 6, a_opts);
  Result<ShardStore> b = ShardStore::Create(dir_b, 40, 6);  // one shard
  Result<ShardStore> c = ShardStore::InRam(40, 6);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  FillStore(&a.value());
  FillStore(&b.value());
  FillStore(&c.value());
  const uint32_t crc = a.value().ContentCrc32();
  EXPECT_EQ(crc, b.value().ContentCrc32());
  EXPECT_EQ(crc, c.value().ContentCrc32());
}

TEST(ShardStoreTest, OpenRefusesUnsealedStore) {
  const std::string dir = TestDir("unsealed");
  Result<ShardStore> created = ShardStore::Create(dir, 8, 2);
  ASSERT_TRUE(created.ok());
  FillStore(&created.value());
  // No Seal(): the manifest still says "unsealed".
  Result<ShardStore> reopened = ShardStore::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kFailedPrecondition);
}

TEST(ShardStoreTest, MutatingSealedStoreUnsealsManifest) {
  const std::string dir = TestDir("unseal_on_write");
  Result<ShardStore> created = ShardStore::Create(dir, 8, 2);
  ASSERT_TRUE(created.ok());
  FillStore(&created.value());
  ASSERT_TRUE(created.value().Seal().ok());
  {
    Result<ShardStore> opened = ShardStore::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    opened.value().MutableRow(3)[0] = 9.0f;
    // The first mutation republished the manifest as unsealed, so a crash
    // here would read as "mid-write", not as stale-but-sealed.
  }
  Result<ShardStore> stale = ShardStore::Open(dir);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kFailedPrecondition);
}

// --- corruption matrix ----------------------------------------------------

class ShardStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("corrupt");
    ShardStoreOptions opts;
    opts.rows_per_shard = 4;
    Result<ShardStore> created = ShardStore::Create(dir_, 10, 2, opts);
    ASSERT_TRUE(created.ok());
    FillStore(&created.value());
    ASSERT_TRUE(created.value().Seal().ok());
  }

  static std::string ReadAll(const std::string& path) {
    std::string out;
    const Status st = io::ReadFile(path, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  static void WriteAll(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(out.good());
  }

  std::string manifest() const { return dir_ + "/manifest"; }
  std::string slab(int i) const {
    return dir_ + "/slab_" + std::to_string(i) + ".bin";
  }

  std::string dir_;
};

TEST_F(ShardStoreCorruptionTest, EveryManifestByteFlipIsDetected) {
  const std::string pristine = ReadAll(manifest());
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string bad = pristine;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    WriteAll(manifest(), bad);
    Result<ShardStore> opened = ShardStore::Open(dir_);
    EXPECT_FALSE(opened.ok()) << "flip at manifest byte " << i;
  }
  WriteAll(manifest(), pristine);
  EXPECT_TRUE(ShardStore::Open(dir_).ok());
}

TEST_F(ShardStoreCorruptionTest, EveryManifestTruncationIsDetected) {
  const std::string pristine = ReadAll(manifest());
  for (size_t len = 0; len < pristine.size(); ++len) {
    WriteAll(manifest(), pristine.substr(0, len));
    EXPECT_FALSE(ShardStore::Open(dir_).ok()) << "truncated to " << len;
  }
  WriteAll(manifest(), pristine);
  EXPECT_TRUE(ShardStore::Open(dir_).ok());
}

TEST_F(ShardStoreCorruptionTest, ManifestTrailingByteIsDetected) {
  const std::string pristine = ReadAll(manifest());
  WriteAll(manifest(), pristine + "x");
  Result<ShardStore> opened = ShardStore::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
}

TEST_F(ShardStoreCorruptionTest, SlabBitFlipIsDetected) {
  const std::string pristine = ReadAll(slab(1));
  for (const size_t at : {size_t{0}, pristine.size() / 2, pristine.size() - 1}) {
    std::string bad = pristine;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    WriteAll(slab(1), bad);
    Result<ShardStore> opened = ShardStore::Open(dir_);
    ASSERT_FALSE(opened.ok()) << "flip at slab byte " << at;
    EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
  }
  WriteAll(slab(1), pristine);
  EXPECT_TRUE(ShardStore::Open(dir_).ok());
}

TEST_F(ShardStoreCorruptionTest, SlabTruncationIsDetected) {
  const std::string pristine = ReadAll(slab(2));
  WriteAll(slab(2), pristine.substr(0, pristine.size() - 4));
  Result<ShardStore> opened = ShardStore::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
}

TEST_F(ShardStoreCorruptionTest, SlabTrailingBytesAreDetected) {
  const std::string pristine = ReadAll(slab(0));
  WriteAll(slab(0), pristine + std::string(4, '\0'));
  Result<ShardStore> opened = ShardStore::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
}

// The version-2 manifest (magic, u64 payload length, payload opening with
// a u64 version 2, trailing CRC) is framed and checksummed correctly, but
// this build reads only the version-3 container. Its length field sits
// where the container keeps its u32 version, so the version check rejects
// it, with a message naming the version found and the version wanted.
TEST_F(ShardStoreCorruptionTest, VersionTwoManifestIsRejectedByVersion) {
  std::string payload;
  io::ByteWriter w(&payload);
  w.Put(uint64_t{2});  // version
  w.Put(uint8_t{0});   // dtype fp32
  w.Put(int64_t{10});  // rows
  w.Put(int64_t{2});   // dim
  w.Put(int64_t{4});   // rows_per_shard
  w.Put(uint8_t{1});   // sealed
  w.Put(uint64_t{3});  // num_shards
  for (int i = 0; i < 3; ++i) {
    const std::string slab_bytes = ReadAll(slab(i));
    w.Put(io::Crc32(slab_bytes.data(), slab_bytes.size()));
  }
  std::string file = "CAMESHD1";
  io::ByteWriter f(&file);
  f.Put(static_cast<uint64_t>(payload.size()));
  file += payload;
  f.Put(io::Crc32(payload.data(), payload.size()));
  WriteAll(manifest(), file);

  Result<ShardStore> opened = ShardStore::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
  const std::string& msg = opened.status().message();
  EXPECT_NE(msg.find("manifest version " + std::to_string(payload.size()) +
                     " is unsupported (this build reads version 3)"),
            std::string::npos)
      << opened.status().ToString();
}

// --- quantized stores -----------------------------------------------------

class ShardStoreQuantizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    src_dir_ = TestDir("quant_src");
    ShardStoreOptions opts;
    opts.rows_per_shard = 4;  // ceil(10 / 4) = 3 shards, short tail
    Result<ShardStore> created = ShardStore::Create(src_dir_, 10, 3, opts);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    src_ = std::move(created).value();
    FillStore(&src_);
    // An all-zero row: its int8 scale must round-trip as exactly 0.
    std::memset(src_.MutableRow(6), 0, sizeof(float) * 3);
    ASSERT_TRUE(src_.Seal().ok());
  }

  std::string src_dir_;
  ShardStore src_;
};

// Every quantization test runs both destinations: an on-disk store, and
// an empty dir, which builds the same slab layout in RAM. The in-RAM store
// must carry the same codes, scales and bounds as the on-disk one.
TEST_F(ShardStoreQuantizeTest, Int8QuantizeMatchesDirectQuantization) {
  const std::string dir = TestDir("quant_int8");
  Result<ShardStore> disk = ShardStore::Quantize(&src_, dir, ShardDtype::kInt8);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  Result<ShardStore> ram = ShardStore::Quantize(&src_, "", ShardDtype::kInt8);
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  EXPECT_FALSE(disk.value().in_ram());
  EXPECT_TRUE(ram.value().in_ram());
  for (ShardStore* q : {&disk.value(), &ram.value()}) {
    EXPECT_EQ(q->dtype(), ShardDtype::kInt8);
    EXPECT_EQ(q->rows(), 10);
    EXPECT_EQ(q->dim(), 3);
    EXPECT_EQ(q->rows_per_shard(), 4);  // geometry inherited
    EXPECT_EQ(q->num_shards(), 3);

    // Per shard: the slab contents equal quantizing the fp32 rows directly.
    for (int64_t begin = 0; begin < 10; begin = q->ShardEnd(begin)) {
      const int64_t end = q->ShardEnd(begin);
      const int64_t rows = end - begin;
      const float* fp32 = src_.PanelRows(begin, end);
      std::vector<int8_t> want_q(static_cast<size_t>(rows * 3));
      std::vector<float> want_s(static_cast<size_t>(rows));
      ASSERT_TRUE(qgemm::QuantizeRowsInt8(fp32, rows, 3, want_q.data(),
                                          want_s.data())
                      .ok());
      EXPECT_EQ(std::memcmp(q->QuantPanelRows(begin, end), want_q.data(),
                            want_q.size()),
                0)
          << "shard at row " << begin << (q->in_ram() ? " (in RAM)" : "");
      EXPECT_EQ(std::memcmp(q->PanelScales(begin, end), want_s.data(),
                            want_s.size() * sizeof(float)),
                0);
    }
    EXPECT_EQ(q->PanelScales(4, 8)[2], 0.0f);  // row 6, the all-zero row
  }
  EXPECT_EQ(ram.value().ContentCrc32(), disk.value().ContentCrc32());
  ASSERT_FALSE(ram.value().bounds().empty());
  EXPECT_EQ(ram.value().bounds(), disk.value().bounds());

  // Sealed from birth: a fresh Open succeeds, verifies CRCs and derives
  // the writer's bounds.
  EXPECT_EQ(ListDir(dir), StoreFiles(3));
  Result<ShardStore> reopened = ShardStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().dtype(), ShardDtype::kInt8);
  EXPECT_EQ(reopened.value().ContentCrc32(), disk.value().ContentCrc32());
  ASSERT_FALSE(reopened.value().bounds().empty());
  EXPECT_EQ(reopened.value().bounds(), disk.value().bounds());

#if GTEST_HAS_DEATH_TEST
  // Quantized stores are immutable and fp32-accessor-free.
  for (ShardStore* q : {&disk.value(), &ram.value()}) {
    EXPECT_DEATH(q->MutableRow(0), "");
    EXPECT_DEATH(q->Row(0), "");
    EXPECT_DEATH(q->PanelRows(0, 4), "");
    EXPECT_DEATH(q->Bf16PanelRows(0, 4), "");
  }
#endif
}

TEST_F(ShardStoreQuantizeTest, Bf16QuantizeMatchesDirectEncoding) {
  const std::string dir = TestDir("quant_bf16");
  Result<ShardStore> disk = ShardStore::Quantize(&src_, dir, ShardDtype::kBf16);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  Result<ShardStore> ram = ShardStore::Quantize(&src_, "", ShardDtype::kBf16);
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  for (ShardStore* q : {&disk.value(), &ram.value()}) {
    EXPECT_EQ(q->dtype(), ShardDtype::kBf16);
    for (int64_t begin = 0; begin < 10; begin = q->ShardEnd(begin)) {
      const int64_t end = q->ShardEnd(begin);
      const int64_t rows = end - begin;
      std::vector<uint16_t> want(static_cast<size_t>(rows * 3));
      ASSERT_TRUE(qgemm::EncodeRowsBf16(src_.PanelRows(begin, end), rows, 3,
                                        want.data())
                      .ok());
      EXPECT_EQ(std::memcmp(q->Bf16PanelRows(begin, end), want.data(),
                            want.size() * sizeof(uint16_t)),
                0)
          << "shard at row " << begin << (q->in_ram() ? " (in RAM)" : "");
    }
  }
  EXPECT_EQ(ram.value().ContentCrc32(), disk.value().ContentCrc32());
  ASSERT_FALSE(ram.value().bounds().empty());
  EXPECT_EQ(ram.value().bounds(), disk.value().bounds());
  EXPECT_EQ(ListDir(dir), StoreFiles(3));
  Result<ShardStore> reopened = ShardStore::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().dtype(), ShardDtype::kBf16);
  ASSERT_FALSE(reopened.value().bounds().empty());
  EXPECT_EQ(reopened.value().bounds(), disk.value().bounds());
}

TEST_F(ShardStoreQuantizeTest, QuantizeRejectsBadInputs) {
  // Target dtype must be a quantized one.
  EXPECT_FALSE(
      ShardStore::Quantize(&src_, TestDir("quant_f32"), ShardDtype::kFp32)
          .ok());
  // Destination must not already hold a manifest.
  EXPECT_FALSE(
      ShardStore::Quantize(&src_, src_dir_, ShardDtype::kInt8).ok());
  // A quantized store cannot be quantized again.
  const std::string dir = TestDir("quant_again_src");
  Result<ShardStore> once = ShardStore::Quantize(&src_, dir, ShardDtype::kInt8);
  ASSERT_TRUE(once.ok());
  EXPECT_FALSE(ShardStore::Quantize(&once.value(), TestDir("quant_again_dst"),
                                    ShardDtype::kBf16)
                   .ok());
}

TEST_F(ShardStoreQuantizeTest, QuantizeRejectsNonFiniteRows) {
  const std::string bad_dir = TestDir("quant_nan_src");
  Result<ShardStore> created = ShardStore::Create(bad_dir, 4, 2);
  ASSERT_TRUE(created.ok());
  FillStore(&created.value());
  created.value().MutableRow(2)[1] = std::numeric_limits<float>::quiet_NaN();
  for (const ShardDtype dtype : {ShardDtype::kInt8, ShardDtype::kBf16}) {
    for (const std::string& dst : {TestDir("quant_nan_dst"), std::string()}) {
      Result<ShardStore> q = ShardStore::Quantize(&created.value(), dst, dtype);
      ASSERT_FALSE(q.ok()) << ShardDtypeName(dtype) << " into '" << dst << "'";
      EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument);
    }
  }
}

// Corruption matrix for the quantized container: the v2 manifest (with
// its dtype byte) and the int8 slab layout (padded rows + scale block)
// must be covered by the same CRC framing as fp32 stores.
class QuantShardCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string src_dir = TestDir("qcorrupt_src");
    ShardStoreOptions opts;
    opts.rows_per_shard = 4;
    Result<ShardStore> created = ShardStore::Create(src_dir, 10, 3, opts);
    ASSERT_TRUE(created.ok());
    FillStore(&created.value());
    ASSERT_TRUE(created.value().Seal().ok());
    dir_ = TestDir("qcorrupt");
    Result<ShardStore> q =
        ShardStore::Quantize(&created.value(), dir_, ShardDtype::kInt8);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
  }

  static std::string ReadAll(const std::string& path) {
    std::string out;
    const Status st = io::ReadFile(path, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  static void WriteAll(const std::string& path, const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(out.good());
  }

  std::string manifest() const { return dir_ + "/manifest"; }
  std::string slab(int i) const {
    return dir_ + "/slab_" + std::to_string(i) + ".bin";
  }

  std::string dir_;
};

TEST_F(QuantShardCorruptionTest, EveryManifestByteFlipIsDetected) {
  const std::string pristine = ReadAll(manifest());
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string bad = pristine;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    WriteAll(manifest(), bad);
    EXPECT_FALSE(ShardStore::Open(dir_).ok())
        << "flip at v2 manifest byte " << i;
  }
  WriteAll(manifest(), pristine);
  EXPECT_TRUE(ShardStore::Open(dir_).ok());
}

TEST_F(QuantShardCorruptionTest, ManifestTruncationAndTrailingDetected) {
  const std::string pristine = ReadAll(manifest());
  for (size_t len = 0; len < pristine.size(); len += 3) {
    WriteAll(manifest(), pristine.substr(0, len));
    EXPECT_FALSE(ShardStore::Open(dir_).ok()) << "truncated to " << len;
  }
  WriteAll(manifest(), pristine + "x");
  Result<ShardStore> trailing = ShardStore::Open(dir_);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), Status::Code::kCorruption);
}

TEST_F(QuantShardCorruptionTest, SlabFlipsDetectedInRowsPadAndScales) {
  // Slab 0 holds 4 rows x 3 cols int8 (12 bytes), zero-pad to 64, then
  // 4 fp32 scales: flip one byte in each region.
  const std::string pristine = ReadAll(slab(0));
  ASSERT_EQ(pristine.size(), 64u + 16u);
  for (const size_t at : {size_t{5}, size_t{30}, size_t{66}}) {
    std::string bad = pristine;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    WriteAll(slab(0), bad);
    Result<ShardStore> opened = ShardStore::Open(dir_);
    ASSERT_FALSE(opened.ok()) << "flip at slab byte " << at;
    EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
  }
  WriteAll(slab(0), pristine);
  EXPECT_TRUE(ShardStore::Open(dir_).ok());
}

TEST_F(QuantShardCorruptionTest, SlabTruncationAndTrailingDetected) {
  const std::string pristine = ReadAll(slab(1));
  WriteAll(slab(1), pristine.substr(0, pristine.size() - 4));
  Result<ShardStore> truncated = ShardStore::Open(dir_);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), Status::Code::kCorruption);
  WriteAll(slab(1), pristine + std::string(4, '\0'));
  Result<ShardStore> trailing = ShardStore::Open(dir_);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), Status::Code::kCorruption);
}

TEST_F(QuantShardCorruptionTest, ManifestDtypeByteFlipIsDetected) {
  // Flipping the dtype byte alone (byte 32: the first payload byte of the
  // one section, after the 16-byte container header and the 16-byte
  // section header) must fail the manifest CRC — a store can never
  // silently change encoding. Every other 0x01 byte is swapped too.
  const std::string pristine = ReadAll(manifest());
  ASSERT_EQ(pristine[32], 0x01) << "dtype byte of an int8 store";
  bool found_int8_byte = false;
  for (size_t i = 0; i < pristine.size(); ++i) {
    if (pristine[i] != 0x01) continue;
    found_int8_byte = true;
    std::string bad = pristine;
    bad[i] = 0x02;  // int8 -> bf16
    WriteAll(manifest(), bad);
    EXPECT_FALSE(ShardStore::Open(dir_).ok()) << "dtype swap at byte " << i;
  }
  ASSERT_TRUE(found_int8_byte);
  WriteAll(manifest(), pristine);
  EXPECT_TRUE(ShardStore::Open(dir_).ok());
}

}  // namespace
}  // namespace came::tensor
