// The KG file format has one reader and one writer (kg/kg_files.h). These
// tests run one table of triple rows through both of its readers —
// Dataset::LoadTsv and train::TsvTripleSource — and check that each
// writer reports a full disk instead of returning OK.

#include "kg/kg_files.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "datagen/stream_bkg.h"
#include "kg/dataset.h"
#include "train/scale_trainer.h"

namespace came::kg {
namespace {

constexpr int64_t kEntities = 3;
constexpr int64_t kRelations = 2;

struct RowCase {
  const char* label;
  const char* rows;    // the whole train.tsv
  const char* error;   // what follows "<path>:"; empty when the file loads
  std::vector<Triple> triples;  // what a good file holds
};

const std::vector<RowCase>& RowTable() {
  static const std::vector<RowCase> table = {
      {"plain rows", "0\t0\t1\n2\t1\t0\n", "", {{0, 0, 1}, {2, 1, 0}}},
      {"blank line", "0\t0\t1\n\n2\t1\t0\n", "", {{0, 0, 1}, {2, 1, 0}}},
      {"CRLF line endings", "0\t0\t1\r\n2\t1\t0\r\n", "",
       {{0, 0, 1}, {2, 1, 0}}},
      {"blank CRLF line", "\r\n0\t0\t1\n", "", {{0, 0, 1}}},
      {"empty file", "", "", {}},
      {"2 fields", "0\t0\n", "1: expected 3 tab-separated fields, got 2", {}},
      {"4 fields", "0\t0\t1\t2\n",
       "1: expected 3 tab-separated fields, got 4", {}},
      {"no tab", "0 0 1\n", "1: expected 3 tab-separated fields, got 1", {}},
      {"bad row after a good one", "0\t0\t1\n1\t0\n",
       "2: expected 3 tab-separated fields, got 2", {}},
      {"non-numeric head", "x\t0\t1\n", "1: non-numeric head id \"x\"", {}},
      {"non-numeric relation", "0\tzero\t1\n",
       "1: non-numeric relation id \"zero\"", {}},
      {"trailing garbage", "0\t0\t1x\n", "1: non-numeric tail id \"1x\"", {}},
      {"empty id", "0\t\t1\n", "1: non-numeric relation id \"\"", {}},
      {"plus sign", "+1\t0\t1\n", "1: non-numeric head id \"+1\"", {}},
      {"negative head", "-1\t0\t1\n",
       "1: head id -1 out of range [0, 3)", {}},
      {"negative relation", "0\t-1\t2\n",
       "1: relation id -1 out of range [0, 2)", {}},
      {"out-of-range relation", "0\t2\t1\n",
       "1: relation id 2 out of range [0, 2)", {}},
      {"out-of-range tail", "0\t0\t3\n", "1: tail id 3 out of range [0, 3)",
       {}},
      {"int64 overflow", "2\t0\t1\n9999999999999999999\t0\t1\n",
       "2: head id 9999999999999999999 out of range [0, 3)", {}},
      {"far past int64", "99999999999999999999999\t0\t1\n",
       "1: head id 99999999999999999999999 out of range [0, 3)", {}},
  };
  return table;
}

class KgFilesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("came_kg_files_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Dataset Toy() {
    Dataset ds;
    ds.vocab.AddEntity("Aspirin", EntityType::kCompound);
    ds.vocab.AddEntity("TP53", EntityType::kGene);
    ds.vocab.AddEntity("Asthma", EntityType::kDisease);
    ds.vocab.AddRelation("targets");
    ds.vocab.AddRelation("treats");
    ds.train = {{0, 0, 1}};
    ds.valid = {{1, 1, 2}};
    ds.test = {{0, 1, 2}};
    return ds;
  }

  std::string Path(const char* file) const { return KgPath(dir_, file); }

  std::filesystem::path dir_;
};

// Both readers of train.tsv give the same verdict and the same message on
// every row of the table.
TEST_F(KgFilesTest, BothReadersAgreeOnEveryRow) {
  ASSERT_TRUE(Toy().SaveTsv(dir_).ok());
  const std::string train = Path(kTrainFile);
  for (const RowCase& c : RowTable()) {
    SCOPED_TRACE(c.label);
    std::ofstream(train, std::ios::trunc) << c.rows;

    Result<Dataset> loaded = Dataset::LoadTsv(dir_, "toy");

    train::TsvTripleSource source(train, kEntities, kRelations);
    ASSERT_TRUE(source.Reset().ok());
    std::vector<Triple> streamed;
    Status stream_status = Status::OK();
    Triple t;
    while (true) {
      Result<bool> got = source.Next(&t);
      if (!got.ok()) {
        stream_status = got.status();
        break;
      }
      if (!got.value()) break;
      streamed.push_back(t);
    }

    if (*c.error == '\0') {
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_TRUE(stream_status.ok()) << stream_status.ToString();
      EXPECT_EQ(loaded.value().train, c.triples);
      EXPECT_EQ(streamed, c.triples);
      continue;
    }
    const std::string want = train + ":" + c.error;
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(loaded.status().message(), want);
    EXPECT_EQ(stream_status.code(), Status::Code::kCorruption);
    EXPECT_EQ(stream_status.message(), want);
  }
}

TEST_F(KgFilesTest, MissingFileIsIOErrorForBothReaders) {
  EXPECT_EQ(Dataset::LoadTsv(dir_, "toy").status().code(),
            Status::Code::kIOError);
  train::TsvTripleSource source(Path(kTrainFile), kEntities, kRelations);
  EXPECT_EQ(source.Reset().code(), Status::Code::kIOError);
}

TEST_F(KgFilesTest, WriterRoundTripsThroughReader) {
  TsvWriter out;
  ASSERT_TRUE(out.Open(Path(kEntitiesFile)).ok());
  out.EntityRow(0, "Aspirin", EntityType::kCompound);
  out.EntityRow(1, "TP53", EntityType::kGene);
  ASSERT_TRUE(out.Close().ok());

  TsvReader in;
  ASSERT_TRUE(in.Open(Path(kEntitiesFile)).ok());
  Result<bool> got = in.Next(3);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(in.field(0), "0");
  EXPECT_EQ(in.field(1), "Aspirin");
  EXPECT_EQ(in.field(2), "1");
  got = in.Next(3);
  ASSERT_TRUE(got.ok() && got.value());
  EXPECT_EQ(in.field(1), "TP53");
  got = in.Next(3);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

// A KG file that is really /dev/full takes every row into the stream
// buffer and fails only when the buffer is flushed: the writers must
// report that as IOError instead of returning OK.
class DevFullTest : public KgFilesTest,
                    public ::testing::WithParamInterface<const char*> {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists("/dev/full")) {
      GTEST_SKIP() << "no /dev/full";
    }
    KgFilesTest::SetUp();
    std::filesystem::create_symlink("/dev/full", Path(GetParam()));
  }
};

TEST_P(DevFullTest, SaveTsvReportsTheFailedWrite) {
  const Status st = Toy().SaveTsv(dir_);
  EXPECT_EQ(st.code(), Status::Code::kIOError) << st.ToString();
  EXPECT_EQ(st.message(), "write failed for " + Path(GetParam()));
}

TEST_P(DevFullTest, StreamGenerateBkgReportsTheFailedWrite) {
  datagen::StreamBkgOptions options;
  options.out_dir = dir_;
  const Result<datagen::StreamBkgSummary> summary = datagen::StreamGenerateBkg(
      datagen::BkgConfig::DrkgMmSynth(0.02), options);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), Status::Code::kIOError)
      << summary.status().ToString();
  EXPECT_EQ(summary.status().message(), "write failed for " + Path(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(EveryKgFile, DevFullTest,
                         ::testing::Values(kEntitiesFile, kRelationsFile,
                                           kTrainFile, kValidFile, kTestFile));

}  // namespace
}  // namespace came::kg
