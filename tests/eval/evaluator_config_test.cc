// Evaluator rejects configurations its batch loop cannot run.
#include <gtest/gtest.h>

#include "baselines/model_zoo.h"
#include "datagen/bkg_generator.h"
#include "eval/evaluator.h"

namespace came::eval {
namespace {

#if GTEST_HAS_DEATH_TEST
// The query loop advances by batch_size, so 0 would never terminate.
TEST(EvaluatorConfigDeathTest, ZeroBatchSizeIsRejected) {
  const datagen::GeneratedBkg bkg =
      datagen::GenerateBkg(datagen::BkgConfig::DrkgMmSynth(0.05));
  baselines::ModelContext ctx;
  ctx.num_entities = bkg.dataset.num_entities();
  ctx.num_relations = bkg.dataset.num_relations_with_inverses();
  baselines::ZooOptions zoo;
  zoo.dim = 8;
  auto model = baselines::CreateModel("DistMult", ctx, zoo);
  const Evaluator evaluator(bkg.dataset);
  EvalConfig cfg;
  cfg.batch_size = 0;
  cfg.max_triples = 5;
  EXPECT_DEATH(evaluator.Evaluate(model.get(), bkg.dataset.test, cfg),
               "batch_size");
}
#endif

}  // namespace
}  // namespace came::eval
