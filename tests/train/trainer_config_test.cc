// Trainer rejects configurations its epoch loops cannot run.
#include <gtest/gtest.h>

#include "baselines/model_zoo.h"
#include "datagen/bkg_generator.h"
#include "train/trainer.h"

namespace came::train {
namespace {

#if GTEST_HAS_DEATH_TEST
// The epoch loops advance by batch_size, so 0 would never terminate.
TEST(TrainerConfigDeathTest, ZeroBatchSizeIsRejected) {
  const datagen::GeneratedBkg bkg =
      datagen::GenerateBkg(datagen::BkgConfig::DrkgMmSynth(0.05));
  baselines::ModelContext ctx;
  ctx.num_entities = bkg.dataset.num_entities();
  ctx.num_relations = bkg.dataset.num_relations_with_inverses();
  baselines::ZooOptions zoo;
  zoo.dim = 8;
  auto model = baselines::CreateModel("DistMult", ctx, zoo);
  TrainConfig cfg;
  cfg.batch_size = 0;
  EXPECT_DEATH(Trainer(model.get(), bkg.dataset, cfg), "batch_size");
}
#endif

}  // namespace
}  // namespace came::train
