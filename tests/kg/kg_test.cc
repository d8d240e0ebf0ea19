#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "kg/dataset.h"
#include "kg/filter_index.h"
#include "kg/triple_store.h"
#include "kg/vocab.h"

namespace came::kg {
namespace {

TEST(VocabTest, EntityRoundTrip) {
  Vocab v;
  const int64_t a = v.AddEntity("Aspirin", EntityType::kCompound);
  const int64_t b = v.AddEntity("TP53", EntityType::kGene);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(v.AddEntity("Aspirin", EntityType::kCompound), a);  // dedup
  EXPECT_EQ(v.EntityId("TP53"), b);
  EXPECT_EQ(v.EntityId("missing"), -1);
  EXPECT_EQ(v.EntityName(a), "Aspirin");
  EXPECT_EQ(v.entity_type(b), EntityType::kGene);
  EXPECT_EQ(v.num_entities(), 2);
}

TEST(VocabTest, RelationRoundTrip) {
  Vocab v;
  EXPECT_EQ(v.AddRelation("treats"), 0);
  EXPECT_EQ(v.AddRelation("causes"), 1);
  EXPECT_EQ(v.AddRelation("treats"), 0);
  EXPECT_EQ(v.RelationName(1), "causes");
  EXPECT_EQ(v.RelationId("missing"), -1);
}

TEST(VocabTest, EntitiesOfType) {
  Vocab v;
  v.AddEntity("c1", EntityType::kCompound);
  v.AddEntity("g1", EntityType::kGene);
  v.AddEntity("c2", EntityType::kCompound);
  auto compounds = v.EntitiesOfType(EntityType::kCompound);
  EXPECT_EQ(compounds, (std::vector<int64_t>{0, 2}));
}

TEST(TripleStoreTest, DedupsAndPreservesOrder) {
  TripleStore s;
  EXPECT_TRUE(s.Add({0, 1, 2}));
  EXPECT_TRUE(s.Add({2, 1, 0}));
  EXPECT_FALSE(s.Add({0, 1, 2}));
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s[0], (Triple{0, 1, 2}));
  EXPECT_TRUE(s.Contains({2, 1, 0}));
  EXPECT_FALSE(s.Contains({2, 0, 1}));
}

TEST(DatasetTest, InverseAugmentation) {
  Dataset ds;
  ds.vocab.AddEntity("a", EntityType::kGene);
  ds.vocab.AddEntity("b", EntityType::kGene);
  ds.vocab.AddRelation("r0");
  ds.vocab.AddRelation("r1");
  ds.train = {{0, 1, 1}};
  auto aug = ds.TrainWithInverses();
  ASSERT_EQ(aug.size(), 2u);
  EXPECT_EQ(aug[0], (Triple{0, 1, 1}));
  EXPECT_EQ(aug[1], (Triple{1, 3, 0}));  // inverse id = r + R
  EXPECT_EQ(ds.num_relations_with_inverses(), 4);
  EXPECT_EQ(ds.InverseRelation(1), 3);
  EXPECT_EQ(ds.InverseRelation(3), 1);
}

TEST(DatasetTest, SplitRatiosAndDisjointness) {
  std::vector<Triple> triples;
  for (int64_t i = 0; i < 1000; ++i) triples.push_back({i, 0, i + 1});
  Rng rng(9);
  std::vector<Triple> train;
  std::vector<Triple> valid;
  std::vector<Triple> test;
  SplitTriples(triples, &rng, &train, &valid, &test);
  EXPECT_EQ(train.size(), 800u);
  EXPECT_EQ(valid.size(), 100u);
  EXPECT_EQ(test.size(), 100u);
  TripleStore seen;
  for (const auto& t : train) EXPECT_TRUE(seen.Add(t));
  for (const auto& t : valid) EXPECT_TRUE(seen.Add(t));
  for (const auto& t : test) EXPECT_TRUE(seen.Add(t));
}

TEST(DatasetTest, SplitIsDeterministicPerSeed) {
  std::vector<Triple> triples;
  for (int64_t i = 0; i < 100; ++i) triples.push_back({i, 0, i + 1});
  Rng rng1(7);
  Rng rng2(7);
  std::vector<Triple> a1, b1, c1, a2, b2, c2;
  SplitTriples(triples, &rng1, &a1, &b1, &c1);
  SplitTriples(triples, &rng2, &a2, &b2, &c2);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(c1, c2);
}

TEST(DatasetTest, TsvRoundTrip) {
  Dataset ds;
  ds.name = "toy";
  ds.vocab.AddEntity("Aspirin", EntityType::kCompound);
  ds.vocab.AddEntity("TP53", EntityType::kGene);
  ds.vocab.AddRelation("targets");
  ds.train = {{0, 0, 1}};
  ds.valid = {};
  ds.test = {{1, 0, 0}};

  const std::string dir = "/tmp/came_kg_tsv_test";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(ds.SaveTsv(dir).ok());
  auto loaded = Dataset::LoadTsv(dir, "toy");
  ASSERT_TRUE(loaded.ok());
  const Dataset& l = loaded.value();
  EXPECT_EQ(l.vocab.num_entities(), 2);
  EXPECT_EQ(l.vocab.EntityName(0), "Aspirin");
  EXPECT_EQ(l.vocab.entity_type(1), EntityType::kGene);
  EXPECT_EQ(l.vocab.RelationName(0), "targets");
  ASSERT_EQ(l.train.size(), 1u);
  EXPECT_EQ(l.train[0], (Triple{0, 0, 1}));
  EXPECT_EQ(l.test[0], (Triple{1, 0, 0}));
  std::filesystem::remove_all(dir);
}

TEST(DatasetTest, LoadMissingDirFails) {
  auto r = Dataset::LoadTsv("/nonexistent_dir_xyz", "x");
  EXPECT_FALSE(r.ok());
}

// Writes a structurally valid 2-entity / 1-relation dataset, then lets
// each test overwrite one vocab file with malformed content (triple rows
// are covered by the shared row table in kg_files_test.cc).
class DatasetMalformedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("came_dataset_malformed_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    Dataset ds;
    ds.name = "toy";
    ds.vocab.AddEntity("Aspirin", EntityType::kCompound);
    ds.vocab.AddEntity("TP53", EntityType::kGene);
    ds.vocab.AddRelation("targets");
    ds.train = {{0, 0, 1}};
    ds.test = {{1, 0, 0}};
    ASSERT_TRUE(ds.SaveTsv(dir_.string()).ok());
    ASSERT_TRUE(Dataset::LoadTsv(dir_.string(), "toy").ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Overwrite(const std::string& file, const std::string& content) {
    std::ofstream out(dir_ / file, std::ios::trunc);
    out << content;
    ASSERT_TRUE(out.good());
  }

  Status LoadStatus() {
    return Dataset::LoadTsv(dir_.string(), "toy").status();
  }

  void ExpectCorrupt(const std::string& want_substring) {
    const Status st = LoadStatus();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
    EXPECT_NE(st.ToString().find(want_substring), std::string::npos)
        << st.ToString();
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetMalformedTest, DuplicateEntityName) {
  Overwrite("entities.tsv", "0\tAspirin\t1\n1\tAspirin\t0\n");
  ExpectCorrupt("duplicate entity name");
}

TEST_F(DatasetMalformedTest, DuplicateRelationName) {
  Overwrite("relations.tsv", "0\ttargets\n1\ttargets\n");
  ExpectCorrupt("duplicate relation name");
}

TEST_F(DatasetMalformedTest, NonDenseEntityIds) {
  Overwrite("entities.tsv", "0\tAspirin\t1\n5\tTP53\t0\n");
  ExpectCorrupt("non-dense entity ids");
}

TEST_F(DatasetMalformedTest, InvalidEntityType) {
  Overwrite("entities.tsv", "0\tAspirin\t99\n1\tTP53\t0\n");
  ExpectCorrupt("entities.tsv:1: entity type 99 out of range [0, 7)");
  Overwrite("entities.tsv", "0\tAspirin\tabc\n1\tTP53\t0\n");
  ExpectCorrupt("entities.tsv:1: non-numeric entity type \"abc\"");
}

TEST_F(DatasetMalformedTest, EmptyNamesRejected) {
  Overwrite("entities.tsv", "0\t\t1\n1\tTP53\t0\n");
  ExpectCorrupt("empty entity name");
  // Restore a valid entity file; now break relations.
  Overwrite("entities.tsv", "0\tAspirin\t1\n1\tTP53\t0\n");
  Overwrite("relations.tsv", "0\t\n");
  ExpectCorrupt("empty relation name");
}

TEST_F(DatasetMalformedTest, EmptyVocabRejected) {
  Overwrite("entities.tsv", "");
  ExpectCorrupt("no entities");
}

std::vector<int64_t> ToVec(std::span<const int64_t> s) {
  return {s.begin(), s.end()};
}

TEST(FilterIndexTest, ForwardAndInversePostings) {
  FilterIndex idx(10, 2);
  idx.AddTriples({{1, 0, 3}, {1, 0, 5}, {2, 1, 3}});
  EXPECT_EQ(ToVec(idx.Tails(1, 0)), (std::vector<int64_t>{3, 5}));
  // Inverse relation id = rel + num_relations.
  EXPECT_EQ(ToVec(idx.Tails(3, 2)), (std::vector<int64_t>{1}));
  EXPECT_EQ(ToVec(idx.Tails(3, 3)), (std::vector<int64_t>{2}));
  EXPECT_TRUE(idx.Contains(1, 0, 5));
  EXPECT_FALSE(idx.Contains(1, 0, 4));
  EXPECT_TRUE(idx.Tails(9, 1).empty());
}

TEST(FilterIndexTest, DedupsPostings) {
  FilterIndex idx(4, 1);
  idx.AddTriples({{0, 0, 1}, {0, 0, 1}});
  EXPECT_EQ(idx.Tails(0, 0).size(), 1u);
}

TEST(FilterIndexTest, IncrementalAddsMerge) {
  FilterIndex idx(10, 1);
  idx.AddTriples({{1, 0, 5}});
  idx.AddTriples({{1, 0, 3}, {1, 0, 5}});
  EXPECT_EQ(ToVec(idx.Tails(1, 0)), (std::vector<int64_t>{3, 5}));
  EXPECT_EQ(idx.num_postings(), 4);  // {1,0}->3,5 plus inverses
}

TEST(FilterIndexTest, EntityWithEveryTailKnown) {
  // Degenerate shape: one head related to every entity (itself included).
  FilterIndex idx(6, 1);
  std::vector<Triple> triples;
  for (int64_t t = 0; t < 6; ++t) triples.push_back({0, 0, t});
  idx.AddTriples(triples);
  EXPECT_EQ(ToVec(idx.Tails(0, 0)), (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  for (int64_t t = 0; t < 6; ++t) EXPECT_TRUE(idx.Contains(0, 0, t));
  // Every entity's inverse posting for relation 1 is exactly {0}.
  for (int64_t t = 0; t < 6; ++t) {
    EXPECT_EQ(ToVec(idx.Tails(t, 1)), (std::vector<int64_t>{0}));
  }
}

TEST(FilterIndexTest, EmptyRelationHasNoPostings) {
  FilterIndex idx(8, 3);
  idx.AddTriples({{0, 0, 1}, {2, 2, 3}});
  // Relation 1 never appears: no key matches it, forward or inverse.
  for (int64_t h = 0; h < 8; ++h) {
    EXPECT_TRUE(idx.Tails(h, 1).empty());
    EXPECT_TRUE(idx.Tails(h, 1 + 3).empty());
    EXPECT_FALSE(idx.Contains(h, 1, 0));
  }
}

TEST(FilterIndexTest, InverseRoundTrip) {
  // Every forward posting (h, r) -> t must appear as (t, r + R) -> h and
  // vice versa — the inverse index is an involution.
  FilterIndex idx(12, 2);
  const std::vector<Triple> triples = {
      {1, 0, 3}, {1, 0, 7}, {3, 1, 1}, {5, 0, 5}, {11, 1, 0}};
  idx.AddTriples(triples);
  const int64_t R = 2;
  for (int64_t h = 0; h < 12; ++h) {
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t t : idx.Tails(h, r)) {
        EXPECT_TRUE(idx.Contains(t, r + R, h))
            << "missing inverse of (" << h << "," << r << "," << t << ")";
      }
      for (int64_t t : idx.Tails(h, r + R)) {
        EXPECT_TRUE(idx.Contains(t, r, h))
            << "missing forward of inverse (" << h << "," << r << "," << t
            << ")";
      }
    }
  }
}

TEST(FilterIndexTest, RejectsInverseRelationInput) {
  FilterIndex idx(4, 2);
  EXPECT_DEATH(idx.AddTriples({{0, 2, 1}}), "base relations");
}

}  // namespace
}  // namespace came::kg
