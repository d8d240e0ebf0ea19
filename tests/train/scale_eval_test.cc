// ScaleTrainer's filtered evaluation and its request validation: ties
// between identical rows must count half a rank each whatever panel and
// batch shapes score them, and out-of-range ids are a clean Status, not a
// process-fatal CHECK.

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "gtest/gtest.h"
#include "kg/filter_index.h"
#include "train/scale_trainer.h"

namespace came::train {
namespace {

constexpr int64_t kEntities = 2500;
constexpr int64_t kRelations = 3;
constexpr int64_t kDim = 32;

ScaleTrainer MakeTrainer(int64_t query_batch) {
  ScaleTrainConfig config;
  config.dim = kDim;
  config.eval_panel_rows = 1024;
  config.eval_query_batch = query_batch;
  Result<ScaleTrainer> made =
      ScaleTrainer::Create(kEntities, kRelations, config);
  CAME_CHECK(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

TEST(ScaleEvalTest, DuplicateOfTheTargetTiesWithIt) {
  ScaleTrainer trainer = MakeTrainer(/*query_batch=*/4);
  tensor::ShardStore& ents = trainer.entity_store();
  // Each query's target row becomes 1000·(h∘r), far above every initial
  // row's score, and is copied into a twin entity in another panel. The
  // other queries' targets and twins are filtered out, so exactly one
  // candidate ties the target and none beats it: rank 1.5.
  std::vector<kg::Triple> queries;
  std::vector<int64_t> twins;
  for (int64_t i = 0; i < 16; ++i) {
    const kg::Triple q{i * 7, i % kRelations, 100 + i * 97};
    const int64_t twin = (q.tail + 1200) % kEntities;
    std::vector<float> row(static_cast<size_t>(kDim));
    std::memcpy(row.data(), ents.Row(q.head), sizeof(float) * kDim);
    const float* r = trainer.relation_store().Row(q.rel);
    for (int64_t k = 0; k < kDim; ++k) {
      row[static_cast<size_t>(k)] *= 1000.0f * r[k];
    }
    std::memcpy(ents.MutableRow(q.tail), row.data(), sizeof(float) * kDim);
    std::memcpy(ents.MutableRow(twin), row.data(), sizeof(float) * kDim);
    queries.push_back(q);
    twins.push_back(twin);
  }
  kg::FilterIndex filter(kEntities, kRelations);
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i == j) continue;
      filter.AddTriples({{queries[i].head, queries[i].rel, queries[j].tail},
                         {queries[i].head, queries[i].rel, twins[j]}});
    }
  }

  VectorTripleSource source(queries);
  const Result<eval::Metrics> m = trainer.EvaluateFiltered(&source, filter);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().count, 16);
  EXPECT_EQ(m.value().Mr(), 1.5);
}

TEST(ScaleEvalTest, OutOfRangeIdsAreInvalidArgumentNamingTheTriple) {
  ScaleTrainer trainer = MakeTrainer(/*query_batch=*/2);
  const kg::FilterIndex filter(kEntities, kRelations);
  const std::vector<kg::Triple> bad = {
      {-1, 0, 0}, {kEntities, 0, 0}, {0, kRelations, 0}};
  for (const kg::Triple& t : bad) {
    // A stream, not a std::string operator+ chain: GCC 12 reports a false
    // -Wrestrict overlap in the inlined concatenation.
    std::ostringstream triple;
    triple << "(" << t.head << ", " << t.rel << ", " << t.tail << ")";
    const std::string name = triple.str();
    // The bad triple rides behind a good one in the same batch.
    VectorTripleSource train({{1, 0, 2}, t});
    const Result<double> loss = trainer.TrainEpoch(&train);
    EXPECT_EQ(loss.status().code(), Status::Code::kInvalidArgument) << name;
    EXPECT_NE(loss.status().ToString().find(name), std::string::npos)
        << loss.status().ToString();

    VectorTripleSource eval({{1, 0, 2}, t});
    const Result<eval::Metrics> m = trainer.EvaluateFiltered(&eval, filter);
    EXPECT_EQ(m.status().code(), Status::Code::kInvalidArgument) << name;
    EXPECT_NE(m.status().ToString().find(name), std::string::npos)
        << m.status().ToString();
  }
}

}  // namespace
}  // namespace came::train
