// Reproduces Table III: link prediction results for all nine unimodal and
// four multimodal baselines plus CamE, on both synthetic datasets, under
// the filtered ranking protocol (MRR / MR / Hits@1/3/10, head and tail
// direction averaged).
//
// Absolute numbers differ from the paper (synthetic data, CPU-scale
// hyperparameters); the reproduced *shape* is the ordering: CamE first on
// MRR/Hits, conv-decoder baselines strongest among the rest, TransE-based
// multimodal baselines weak.
//
// Run:  ./bench_table3_overall [scale] [epochs] [models] [drkg|omaha]
//                              [--json_out=PATH]
// With --json_out, also writes MRR/MR/Hits@1/3/10 and training seconds per
// (dataset, model), plus the runtime "config" block, to PATH.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json_writer.h"
#include "common/table_writer.h"

namespace came {
namespace {

// Optional 3rd CLI arg: comma-separated model subset; 4th: "drkg" or
// "omaha" to run a single dataset (used for the full-budget headline
// addendum).
std::vector<std::string> SelectedModels(int argc, char** argv) {
  if (argc <= 3) return baselines::AllModelNames();
  std::vector<std::string> out;
  std::stringstream ss(argv[3]);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

struct Row {
  std::string dataset;
  std::string model;
  eval::Metrics metrics;
  double train_seconds;
};

Status WriteTable3Json(const std::string& path, const bench::BenchArgs& args,
                     const std::vector<Row>& rows) {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("table3_overall");
  bench::WriteRuntimeConfig(&w);
  w.Key("scale");
  w.Double(args.scale);
  w.Key("epochs");
  w.Int(args.epochs);
  w.Key("rows");
  w.BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.Key("dataset");
    w.String(r.dataset);
    w.Key("model");
    w.String(r.model);
    w.Key("mrr");
    w.Double(r.metrics.Mrr());
    w.Key("mr");
    w.Double(r.metrics.Mr());
    w.Key("hits1");
    w.Double(r.metrics.Hits1());
    w.Key("hits3");
    w.Double(r.metrics.Hits3());
    w.Key("hits10");
    w.Double(r.metrics.Hits10());
    w.Key("train_seconds");
    w.Double(r.train_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  CAME_RETURN_IF_ERROR(w.WriteFile(path));
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

void RunDataset(const char* title, const bench::BenchEnv& env,
                const bench::BenchArgs& args,
                const std::vector<std::string>& models,
                std::vector<Row>* rows) {
  bench::PrintBenchHeader(title, env, args);
  eval::Evaluator evaluator(env.bkg.dataset);
  const auto zoo = bench::DefaultZoo();

  TableWriter table(
      {"Model", "MRR", "MR", "Hits@1", "Hits@3", "Hits@10", "train[s]"});
  for (const std::string& name : models) {
    if (name == "IKRL" && models.size() > 1) {
      table.AddRow({"--- multimodal ---", "", "", "", "", "", ""});
    }
    bench::TrainedModel result =
        bench::TrainAndEval(name, env, evaluator, args.epochs, zoo);
    const eval::Metrics& m = result.test_metrics;
    table.AddRow({name, TableWriter::Num(m.Mrr()), TableWriter::Num(m.Mr(), 0),
                  TableWriter::Num(m.Hits1()), TableWriter::Num(m.Hits3()),
                  TableWriter::Num(m.Hits10()),
                  TableWriter::Num(result.train_seconds, 0)});
    rows->push_back({env.bkg.dataset.name, name, m, result.train_seconds});
    std::printf("  %-10s %s\n", name.c_str(), m.ToString().c_str());
    std::fflush(stdout);
  }
  std::printf("%s\n", table.ToAscii().c_str());
}

}  // namespace
}  // namespace came

int main(int argc, char** argv) {
  using namespace came;
  std::string json_out;
  std::vector<char*> positional = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int n = static_cast<int>(positional.size());
  char** pos = positional.data();
  const auto args = bench::BenchArgs::Parse(n, pos, 0.15, 20);
  const auto models = SelectedModels(n, pos);
  const bool drkg_only = n > 4 && std::strcmp(pos[4], "drkg") == 0;
  const bool omaha_only = n > 4 && std::strcmp(pos[4], "omaha") == 0;
  std::vector<Row> rows;
  if (!omaha_only) {
    bench::BenchEnv drkg = bench::MakeDrkgEnv(args.scale);
    RunDataset("Table III (DRKG-MM-Synth)", drkg, args, models, &rows);
  }
  if (!drkg_only) {
    bench::BenchEnv omaha = bench::MakeOmahaEnv(args.scale * 1.3);
    RunDataset("Table III (OMAHA-MM-Synth)", omaha, args, models, &rows);
  }
  std::printf(
      "paper reference (DRKG-MM): CamE MRR=50.4 H@1=40.2 H@10=67.7; best "
      "baselines MKGformer MRR=45.4, DualE 45.7, ConvE 44.1; weakest "
      "multimodal TransAE MRR=6.8.\n");
  if (!json_out.empty()) {
    const Status written = WriteTable3Json(json_out, args, rows);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
