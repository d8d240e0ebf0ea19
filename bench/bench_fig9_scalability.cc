// Reproduces Fig 9: training and testing time per epoch as the KG grows
// (25% / 50% / 75% / 100% of the base scale), for CamE and the module
// ablations the paper compares (w/o MMF, w/o TCA, w/o M&R, w/o TD,
// w/o MS). The expected shape: near-linear growth in KG size, training
// cost dominated by the TCA operator (w/o TCA and w/o M&R cheapest),
// testing time roughly variant-independent.
// Alongside the ASCII tables, writes BENCH_fig9_scalability.json: one
// record per (fraction, variant) with train/test seconds, so the
// scalability trajectory is machine-readable across commits.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "common/table_writer.h"

namespace came {
namespace {

struct Variant {
  const char* name;
  std::function<void(core::CamEConfig*)> apply;
};

struct Cell {
  double fraction;
  int64_t triples;
  std::string variant;
  double train_seconds;
  double test_seconds;
};

Status WriteFig9Json(const std::string& path, const std::vector<Cell>& cells) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("fig9_scalability");
  bench::WriteRuntimeConfig(&w);
  w.Key("rows");
  w.BeginArray();
  for (const Cell& c : cells) {
    w.BeginObject();
    w.Key("kg_fraction");
    w.Double(c.fraction);
    w.Key("train_triples");
    w.Int(c.triples);
    w.Key("variant");
    w.String(c.variant);
    w.Key("train_seconds");
    w.Double(c.train_seconds);
    w.Key("test_seconds");
    w.Double(c.test_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  CAME_RETURN_IF_ERROR(w.WriteFile(path));
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

}  // namespace
}  // namespace came

int main(int argc, char** argv) {
  using namespace came;
  const auto args = bench::BenchArgs::Parse(argc, argv, 0.12, 1);

  const std::vector<Variant> variants = {
      {"CamE", [](core::CamEConfig*) {}},
      {"w/o MMF", [](core::CamEConfig* c) { c->use_mmf = false; }},
      {"w/o TCA", [](core::CamEConfig* c) { c->use_tca = false; }},
      {"w/o M and R",
       [](core::CamEConfig* c) {
         c->use_mmf = false;
         c->use_ric = false;
       }},
      {"w/o TD", [](core::CamEConfig* c) { c->use_text = false; }},
      {"w/o MS", [](core::CamEConfig* c) { c->use_molecule = false; }},
  };

  TableWriter train_table(
      {"KG size", "triples", "CamE", "w/o MMF", "w/o TCA", "w/o M&R",
       "w/o TD", "w/o MS"});
  TableWriter test_table(
      {"KG size", "triples", "CamE", "w/o MMF", "w/o TCA", "w/o M&R",
       "w/o TD", "w/o MS"});

  std::vector<Cell> cells;
  for (double fraction : {0.25, 0.5, 0.75, 1.0}) {
    bench::BenchEnv env = bench::MakeDrkgEnv(args.scale * fraction);
    if (fraction == 0.25) {
      bench::PrintBenchHeader("Fig 9: scalability (per-epoch time vs KG size)",
                              env, args);
    }
    std::vector<std::string> train_row = {
        TableWriter::Num(100 * fraction, 0) + "%",
        std::to_string(env.bkg.dataset.train.size())};
    std::vector<std::string> test_row = train_row;
    for (const Variant& variant : variants) {
      auto zoo = bench::DefaultZoo();
      variant.apply(&zoo.came);
      auto model = baselines::CreateModel("CamE", env.Context(), zoo);
      train::TrainConfig cfg =
          bench::TrainConfigFor("CamE", *model, args.epochs);
      train::Trainer trainer(model.get(), env.bkg.dataset, cfg);
      Stopwatch sw;
      trainer.RunEpoch();
      const double train_s = sw.ElapsedSeconds();

      eval::Evaluator evaluator(env.bkg.dataset);
      sw.Reset();
      evaluator.Evaluate(model.get(), env.bkg.dataset.test);
      const double test_s = sw.ElapsedSeconds();

      train_row.push_back(TableWriter::Num(train_s, 2));
      test_row.push_back(TableWriter::Num(test_s, 2));
      cells.push_back({fraction,
                       static_cast<int64_t>(env.bkg.dataset.train.size()),
                       variant.name, train_s, test_s});
      std::printf("  %3.0f%% %-12s train=%.2fs test=%.2fs\n", 100 * fraction,
                  variant.name, train_s, test_s);
      std::fflush(stdout);
    }
    train_table.AddRow(train_row);
    test_table.AddRow(test_row);
  }

  std::printf("\nFig 9 — training seconds per epoch:\n%s",
              train_table.ToAscii().c_str());
  std::printf("\nFig 9 — testing seconds (full test set):\n%s",
              test_table.ToAscii().c_str());
  const Status written = WriteFig9Json("BENCH_fig9_scalability.json", cells);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}
