// came_cli — command-line front end for the library, covering the whole
// lifecycle a downstream user needs without writing C++:
//
//   came_cli generate --out DIR [--dataset drkg|omaha] [--scale S] [--seed N]
//       Generate a synthetic multimodal BKG and save it as TSV.
//   came_cli train --kg DIR --model NAME --ckpt FILE [--epochs N] [--dim D]
//       Train any zoo model on a saved KG; writes a CRC-framed trainer
//       checkpoint (train/checkpoint.h), which eval and predict read.
//       (Multimodal models regenerate the modality features from the
//        dataset config recorded at generate time.)
//   came_cli eval --kg DIR --model NAME --ckpt FILE
//       Filtered-ranking evaluation of a checkpoint on the test split.
//   came_cli predict --kg DIR --model NAME --ckpt FILE --head E --rel R [--topk K]
//       Rank tail candidates for a query.
//
// The KG directory stores entities/relations/train/valid/test TSVs plus a
// small config.tsv describing how to rebuild the modality features.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "common/flags.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "eval/ranking.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_server.h"
#include "kg/kg_files.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace {

using namespace came;

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    std::string value = "1";
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    flags[key] = value;
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int Usage() {
  std::fprintf(stderr,
               "usage: came_cli <generate|train|eval|predict> [flags]\n"
               "  generate --out DIR [--dataset drkg|omaha] [--scale S] "
               "[--seed N]\n"
               "  train    --kg DIR --model NAME --ckpt FILE [--epochs N] "
               "[--dim D]\n"
               "  eval     --kg DIR --model NAME --ckpt FILE [--max N]\n"
               "  predict  --kg DIR --model NAME --ckpt FILE --head ENTITY "
               "--rel RELATION [--topk K]\n");
  return 2;
}

// The generator config echo saved alongside the TSVs so later commands
// can rebuild identical modality features.
struct KgMeta {
  std::string dataset = "drkg";
  double scale = 0.2;
  uint64_t seed = 42;
};

std::string MetaPath(const std::string& dir) { return dir + "/config.tsv"; }

// config.tsv holds one "key \t value" row per KgMeta field, read and
// written by the same line rules as the KG files.
Status SaveMeta(const std::string& dir, const KgMeta& meta) {
  kg::TsvWriter out;
  CAME_RETURN_IF_ERROR(out.Open(MetaPath(dir)));
  out.Row("dataset", meta.dataset);
  out.Row("scale", meta.scale);
  out.Row("seed", meta.seed);
  return out.Close();
}

Result<KgMeta> LoadMeta(const std::string& dir) {
  kg::TsvReader in;
  CAME_RETURN_IF_ERROR(in.Open(MetaPath(dir)));
  KgMeta meta;
  while (true) {
    Result<bool> got = in.Next(2);
    if (!got.ok()) return got.status();
    if (!got.value()) return meta;
    const std::string_view key = in.field(0);
    const std::string value(in.field(1));
    if (key == "dataset") {
      meta.dataset = value;
    } else if (key == "scale") {
      Result<double> parsed = flags::ParseDouble(value);
      if (!parsed.ok()) return in.Malformed("bad scale \"" + value + "\"");
      meta.scale = parsed.value();
    } else if (key == "seed") {
      Result<uint64_t> parsed = flags::ParseUint(value);
      if (!parsed.ok()) return in.Malformed("bad seed \"" + value + "\"");
      meta.seed = parsed.value();
    } else {
      return in.Malformed("unknown key \"" + std::string(key) + "\"");
    }
  }
}

datagen::BkgConfig ConfigFor(const KgMeta& meta) {
  datagen::BkgConfig cfg = meta.dataset == "omaha"
                               ? datagen::BkgConfig::OmahaMmSynth(meta.scale)
                               : datagen::BkgConfig::DrkgMmSynth(meta.scale);
  cfg.seed = meta.seed;
  return cfg;
}

int Generate(const std::map<std::string, std::string>& flags) {
  KgMeta meta;
  meta.dataset = FlagOr(flags, "dataset", "drkg");
  meta.scale = flags::DoubleFlag(FlagOr(flags, "scale", "0.2"), "scale",
                                 1e-6, 1e6);
  meta.seed = flags::UintFlag(FlagOr(flags, "seed", "42"), "seed");
  const std::string dir = FlagOr(flags, "out", "");
  if (dir.empty()) return Usage();

  datagen::GeneratedBkg bkg = datagen::GenerateBkg(ConfigFor(meta));
  std::filesystem::create_directories(dir);
  Status st = bkg.dataset.SaveTsv(dir);
  if (st.ok()) st = SaveMeta(dir, meta);
  if (!st.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld entities, %lld relations, %zu/%zu/%zu "
              "train/valid/test triples\n",
              dir.c_str(),
              static_cast<long long>(bkg.dataset.num_entities()),
              static_cast<long long>(bkg.dataset.num_relations()),
              bkg.dataset.train.size(), bkg.dataset.valid.size(),
              bkg.dataset.test.size());
  return 0;
}

// Loads the KG + rebuilds features + constructs the model.
struct LoadedModel {
  datagen::GeneratedBkg bkg;
  encoders::FeatureBank bank;
  std::unique_ptr<baselines::KgcModel> model;
};

int LoadAll(const std::map<std::string, std::string>& flags,
            LoadedModel* out) {
  const std::string dir = FlagOr(flags, "kg", "");
  const std::string name = FlagOr(flags, "model", "CamE");
  if (dir.empty()) return Usage();
  auto meta = LoadMeta(dir);
  if (!meta.ok()) {
    std::fprintf(stderr, "%s\n", meta.status().ToString().c_str());
    return 1;
  }
  // Regenerate the multimodal side deterministically from the meta; the
  // TSVs are authoritative for the structural side.
  out->bkg = datagen::GenerateBkg(ConfigFor(meta.value()));
  auto loaded = kg::Dataset::LoadTsv(dir, out->bkg.dataset.name);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  out->bkg.dataset = std::move(loaded).value();

  encoders::FeatureBankConfig fb;
  out->bank = BuildFeatureBank(out->bkg, fb);

  baselines::ModelContext ctx;
  ctx.num_entities = out->bkg.dataset.num_entities();
  ctx.num_relations = out->bkg.dataset.num_relations_with_inverses();
  ctx.features = &out->bank;
  ctx.train_triples = &out->bkg.dataset.train;
  baselines::ZooOptions zoo;
  zoo.dim = static_cast<int64_t>(
      flags::IntFlag(FlagOr(flags, "dim", "32"), "dim", 1, 1 << 16));
  zoo.conv.reshape_h = 4;
  zoo.came.fusion_dim = zoo.dim;
  zoo.came.reshape_h = 4;
  out->model = baselines::CreateModel(name, ctx, zoo);
  return 0;
}

// Loads the parameters of a checkpoint `train` wrote. Any flipped or
// missing byte fails its CRC, and the model is left untouched.
Status LoadParameters(const std::string& path, baselines::KgcModel* model) {
  train::CheckpointState state;
  CAME_RETURN_IF_ERROR(train::ReadCheckpoint(path, &state));
  return model->LoadParameterValues(state.params);
}

int Train(const std::map<std::string, std::string>& flags) {
  LoadedModel lm;
  if (int rc = LoadAll(flags, &lm); rc != 0) return rc;
  const std::string ckpt = FlagOr(flags, "ckpt", "");
  if (ckpt.empty()) return Usage();

  train::TrainConfig cfg;
  cfg.epochs = static_cast<int>(
      flags::IntFlag(FlagOr(flags, "epochs", "20"), "epochs", 1, 1 << 20));
  cfg = baselines::RecommendedTrainConfig(FlagOr(flags, "model", "CamE"),
                                          cfg);
  eval::Evaluator evaluator(lm.bkg.dataset);
  train::Trainer trainer(lm.model.get(), lm.bkg.dataset, cfg);
  const eval::Metrics best = trainer.TrainWithBestValidation(
      evaluator, std::max(2, cfg.epochs / 5), 300,
      [](const train::EpochStats& s) {
        std::printf("epoch %3d  loss %.4f  %.1fs\n", s.epoch, s.loss,
                    s.seconds_elapsed);
      });
  std::printf("best validation: %s\n", best.ToString().c_str());
  Status st = trainer.SaveCheckpoint(ckpt);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", ckpt.c_str());
  return 0;
}

int Eval(const std::map<std::string, std::string>& flags) {
  LoadedModel lm;
  if (int rc = LoadAll(flags, &lm); rc != 0) return rc;
  Status st = LoadParameters(FlagOr(flags, "ckpt", ""), lm.model.get());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  eval::Evaluator evaluator(lm.bkg.dataset);
  eval::EvalConfig ec;
  ec.max_triples = flags::IntFlag(FlagOr(flags, "max", "-1"), "max", -1);
  const eval::Metrics m =
      evaluator.Evaluate(lm.model.get(), lm.bkg.dataset.test, ec);
  std::printf("test: %s\n", m.ToString().c_str());
  return 0;
}

int Predict(const std::map<std::string, std::string>& flags) {
  LoadedModel lm;
  if (int rc = LoadAll(flags, &lm); rc != 0) return rc;
  Status st = LoadParameters(FlagOr(flags, "ckpt", ""), lm.model.get());
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const kg::Dataset& ds = lm.bkg.dataset;
  const int64_t head = ds.vocab.EntityId(FlagOr(flags, "head", ""));
  const int64_t rel = ds.vocab.RelationId(FlagOr(flags, "rel", ""));
  if (head < 0 || rel < 0) {
    std::fprintf(stderr, "unknown --head or --rel\n");
    return 1;
  }
  const int64_t topk = flags::IntFlag(FlagOr(flags, "topk", "10"), "topk",
                                      1, 1 << 20);

  lm.model->SetTraining(false);
  kg::FilterIndex known(ds.num_entities(), ds.num_relations());
  known.AddTriples(ds.train);
  const std::vector<int64_t> exclude = {head};  // never predict the query head

  std::vector<int64_t> ids;
  std::vector<float> top_scores;
  auto* ip = dynamic_cast<baselines::InnerProductKgcModel*>(lm.model.get());
  if (ip != nullptr) {
    // Serving path: fold the entity-side state once, then answer the
    // query through the ScoreServer's blocked top-K sweep.
    const infer::FusedEmbeddingTable table =
        infer::FusedEmbeddingTable::Build(ip);
    table.InstallFoldedRows(ip);
    infer::ScoreServer server(ip, &table);
    infer::TopKOptions opts;
    opts.exclude = &exclude;
    Result<infer::TopKResult> result = server.TopK(head, rel, topk, opts);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    ids = std::move(result.value().ids);
    top_scores = std::move(result.value().scores);
  } else {
    // Distance models have no candidate table to serve from; fall back to
    // a full scored scan in the same deterministic order.
    ag::NoGradGuard guard;
    tensor::Tensor scores = lm.model->ScoreAllTails({head}, {rel}).value();
    std::vector<int64_t> all(static_cast<size_t>(ds.num_entities()));
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
    std::sort(all.begin(), all.end(), [&](int64_t a, int64_t b) {
      return eval::ScoredBefore(scores.data()[a], a, scores.data()[b], b);
    });
    for (int64_t t : all) {
      if (t == head) continue;
      if (static_cast<int64_t>(ids.size()) >= topk) break;
      ids.push_back(t);
      top_scores.push_back(scores.data()[t]);
    }
  }

  std::printf("(%s, %s, ?):\n", FlagOr(flags, "head", "").c_str(),
              FlagOr(flags, "rel", "").c_str());
  for (size_t i = 0; i < ids.size(); ++i) {
    std::printf("  %-22s %8.3f%s\n", ds.vocab.EntityName(ids[i]).c_str(),
                top_scores[i],
                known.Contains(head, rel, ids[i]) ? "  [known]" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (cmd == "generate") return Generate(flags);
  if (cmd == "train") return Train(flags);
  if (cmd == "eval") return Eval(flags);
  if (cmd == "predict") return Predict(flags);
  return Usage();
}
