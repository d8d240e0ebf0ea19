// Beyond-RAM scale proof: streams a synthetic BKG straight to TSV
// (never materialising the triple vector), then trains and filtered-
// evaluates a DistMult ScaleTrainer whose entity tables live in
// mmap-backed shard slabs under a tight residency budget — all while the
// process stays inside a fixed RSS budget that the full in-RAM tables
// alone would blow through.
//
// The bench runs a small calibration point first and the headline point
// second (default 1.2M entities), so the JSON carries triples/sec vs
// entity count. After the timed filtered evaluation, each point ranks the
// same held-out queries again through ScoreServer::RankBatch at batch 1, 8
// and 64 and records how much of the sweep pruning skipped. Each point
// also records the training epoch's slab evictions per store (the entity
// table and its two Adam moment tables, summed) and the process's user and
// system CPU seconds over the epoch, which show how much of training the
// kernel's map/unmap/refault work takes. Exit status
// is non-zero if peak RSS exceeded the budget, which is what lets CI
// enforce the memory envelope rather than trust the README.
//
// Writes BENCH_sharded_scale.json (override with --json_out=PATH).
//
// Run:  ./bench_sharded_scale [--entities=N] [--triples=N]
//         [--rss_budget_mb=N] [--rows_per_shard=N] [--max_resident=N]
//         [--dim=N] [--eval_queries=N] [--work_dir=PATH] [--json_out=PATH]
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "datagen/stream_bkg.h"
#include "eval/metrics.h"
#include "infer/score_server.h"
#include "kg/filter_index.h"
#include "train/scale_trainer.h"

namespace came {
namespace {

struct Args {
  int64_t entities = 1'200'000;
  int64_t triples = 1'000'000;
  int64_t rss_budget_mb = 512;
  int64_t rows_per_shard = 65536;
  int64_t max_resident = 4;
  int64_t dim = 32;
  int64_t eval_queries = 50;
  std::string work_dir = "/tmp/came_bench_sharded";
  std::string json_out = "BENCH_sharded_scale.json";
};

// User and system CPU seconds the process has used so far.
std::pair<double, double> CpuSeconds() {
  struct rusage usage = {};
  CAME_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

int64_t PeakRssMb() {
  struct rusage usage = {};
  CAME_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return usage.ru_maxrss / 1024;  // Linux reports KiB
}

datagen::BkgConfig ConfigFor(int64_t entities, int64_t triples) {
  datagen::BkgConfig config = datagen::BkgConfig::DrkgMmSynth(1.0);
  config.seed = 7;
  config.num_genes = entities * 4 / 10;
  config.num_compounds = entities * 3 / 10;
  config.num_diseases = entities * 2 / 10;
  config.num_side_effects =
      entities - config.num_genes - config.num_compounds - config.num_diseases;
  config.num_symptoms = 0;
  config.num_triples = triples;
  config.molecules = false;  // structural scale only
  return config;
}

// One untimed-eval rerun of the held-out queries through RankBatch at a
// fixed batch size: throughput and what pruning skipped.
struct RankSweep {
  int64_t batch = 0;
  double queries_per_sec = 0;
  int64_t panels_scored = 0;
  int64_t panels_skipped = 0;
  double bound_rejects_per_query = 0;
  // bound_rejects over (queries x panels per sweep): the share of
  // (query, panel) pairs that sat out.
  double sit_out_share = 0;
};

struct PointResult {
  int64_t entities = 0;
  int64_t train_triples = 0;
  double datagen_seconds = 0;
  double train_seconds = 0;
  double triples_per_sec = 0;
  double train_user_seconds = 0;
  double train_sys_seconds = 0;
  // Slab evictions of the training epoch: the entity table, and its Adam
  // m and v tables summed.
  int64_t train_ent_evictions = 0;
  int64_t train_moment_evictions = 0;
  double eval_seconds = 0;
  double mrr = 0;
  double hits10 = 0;
  int64_t evictions = 0;
  int64_t map_misses = 0;
  int64_t resident_shards = 0;
  std::vector<RankSweep> rank_sweeps;
};

// Ranks `queries` through a ScoreServer built as EvaluateFiltered builds
// its own (the entity store, the trainer's h∘r encoder, eval_panel_rows-
// wide panels), `batch` queries per RankBatch call, and checks that the
// ranks reproduce EvaluateFiltered's metrics exactly.
RankSweep RankAtBatch(train::ScaleTrainer* trainer,
                      const train::ScaleTrainConfig& tc,
                      const std::vector<kg::Triple>& queries,
                      const kg::FilterIndex& filter, int64_t batch,
                      const eval::Metrics& expected) {
  infer::ShardStorePanelSource source(&trainer->entity_store());
  infer::ScoreServerConfig server_config;
  server_config.panel_width = tc.eval_panel_rows;
  server_config.num_relations = trainer->num_relations();
  infer::ScoreServer server(trainer->MakeQueryEncoder(), &source,
                            server_config);

  eval::Metrics metrics;
  Stopwatch watch;
  for (size_t q0 = 0; q0 < queries.size(); q0 += static_cast<size_t>(batch)) {
    const size_t q1 = std::min(queries.size(), q0 + static_cast<size_t>(batch));
    std::vector<int64_t> heads;
    std::vector<int64_t> rels;
    std::vector<int64_t> tails;
    for (size_t q = q0; q < q1; ++q) {
      heads.push_back(queries[q].head);
      rels.push_back(queries[q].rel);
      tails.push_back(queries[q].tail);
    }
    Result<std::vector<double>> ranks =
        server.RankBatch(heads, rels, tails, &filter);
    CAME_CHECK(ranks.ok()) << ranks.status().ToString();
    for (const double rank : ranks.value()) metrics.AddRank(rank);
  }
  const double seconds = watch.ElapsedSeconds();
  CAME_CHECK(metrics.Mrr() == expected.Mrr() &&
             metrics.Hits10() == expected.Hits10())
      << "RankBatch at batch " << batch << " gave " << metrics.ToString()
      << ", EvaluateFiltered gave " << expected.ToString();

  const infer::ScoreServer::Stats stats = server.GetStats();
  const double n = static_cast<double>(stats.queries_served);
  const double panels_per_sweep =
      static_cast<double>(stats.panels_scored + stats.panels_skipped) /
      static_cast<double>(stats.batches_executed);
  RankSweep sweep;
  sweep.batch = batch;
  sweep.queries_per_sec = n / seconds;
  sweep.panels_scored = stats.panels_scored;
  sweep.panels_skipped = stats.panels_skipped;
  sweep.bound_rejects_per_query = static_cast<double>(stats.bound_rejects) / n;
  sweep.sit_out_share =
      static_cast<double>(stats.bound_rejects) / (n * panels_per_sweep);
  return sweep;
}

PointResult RunPoint(const Args& args, int64_t entities, int64_t triples,
                     const std::string& tag) {
  const std::string dir = args.work_dir + "/" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // 1. Streamed dataset generation (bounded memory at any graph size).
  const datagen::BkgConfig config = ConfigFor(entities, triples);
  datagen::StreamBkgOptions gen_opts;
  gen_opts.out_dir = dir + "/data";
  gen_opts.write_entities = false;
  Stopwatch gen_watch;
  Result<datagen::StreamBkgSummary> generated =
      datagen::StreamGenerateBkg(config, gen_opts);
  CAME_CHECK(generated.ok()) << generated.status().ToString();
  const datagen::StreamBkgSummary& summary = generated.value();

  PointResult point;
  point.entities = summary.num_entities;
  point.train_triples = summary.train_triples;
  point.datagen_seconds = gen_watch.ElapsedSeconds();

  // 2. Train through sharded mmap-backed stores.
  train::ScaleTrainConfig tc;
  tc.dim = args.dim;
  tc.negatives = 1;
  tc.batch_size = 1024;
  tc.seed = 11;
  tc.store_dir = dir + "/stores";
  tc.rows_per_shard = args.rows_per_shard;
  tc.max_resident_shards = args.max_resident;
  tc.eval_panel_rows = 8192;
  tc.eval_query_batch = 64;
  Result<train::ScaleTrainer> made = train::ScaleTrainer::Create(
      summary.num_entities, summary.num_relations, tc);
  CAME_CHECK(made.ok()) << made.status().ToString();
  train::ScaleTrainer trainer = std::move(made).value();

  train::TsvTripleSource train_source(kg::KgPath(gen_opts.out_dir,
                                                 kg::kTrainFile),
                                      summary.num_entities,
                                      summary.num_relations);
  const int64_t ent_evictions0 = trainer.entity_store().GetStats().evictions;
  const int64_t moment_evictions0 = trainer.moment_stats().evictions;
  const std::pair<double, double> cpu0 = CpuSeconds();
  Stopwatch train_watch;
  Result<double> loss = trainer.TrainEpoch(&train_source);
  CAME_CHECK(loss.ok()) << loss.status().ToString();
  point.train_seconds = train_watch.ElapsedSeconds();
  const std::pair<double, double> cpu1 = CpuSeconds();
  point.train_user_seconds = cpu1.first - cpu0.first;
  point.train_sys_seconds = cpu1.second - cpu0.second;
  point.train_ent_evictions =
      trainer.entity_store().GetStats().evictions - ent_evictions0;
  point.train_moment_evictions =
      trainer.moment_stats().evictions - moment_evictions0;
  point.triples_per_sec =
      static_cast<double>(summary.train_triples) / point.train_seconds;
  // Sealing computes the entity store's panel bounds; without them every
  // sweep below would score every panel and the pruning figures would be
  // forced, not measured.
  {
    const Status sealed = trainer.entity_store().Seal();
    CAME_CHECK(sealed.ok()) << sealed.ToString();
  }

  // 3. Filtered evaluation over every entity, panel-swept per shard.
  kg::FilterIndex filter(summary.num_entities, summary.num_relations);
  std::vector<kg::Triple> eval_queries;
  {
    std::vector<kg::Triple> buffer;
    buffer.reserve(static_cast<size_t>(summary.train_triples));
    for (const char* split : {kg::kTrainFile, kg::kValidFile}) {
      train::TsvTripleSource src(kg::KgPath(gen_opts.out_dir, split),
                                 summary.num_entities, summary.num_relations);
      CAME_CHECK(src.Reset().ok());
      kg::Triple t;
      for (;;) {
        Result<bool> got = src.Next(&t);
        CAME_CHECK(got.ok()) << got.status().ToString();
        if (!got.value()) break;
        buffer.push_back(t);
        if (std::strcmp(split, kg::kValidFile) == 0 &&
            static_cast<int64_t>(eval_queries.size()) < args.eval_queries) {
          eval_queries.push_back(t);
        }
      }
      filter.AddTriples(buffer);
      buffer.clear();
    }
  }
  CAME_CHECK(!eval_queries.empty()) << "validation split came out empty";

  train::VectorTripleSource query_source(eval_queries);
  Stopwatch eval_watch;
  Result<eval::Metrics> metrics =
      trainer.EvaluateFiltered(&query_source, filter);
  CAME_CHECK(metrics.ok()) << metrics.status().ToString();
  point.eval_seconds = eval_watch.ElapsedSeconds();
  point.mrr = metrics.value().Mrr();
  point.hits10 = metrics.value().Hits10();
  // Entity store stats since Create: the initial fill, the training epoch
  // and the timed evaluation.
  const tensor::ShardStore::Stats stats = trainer.entity_store().GetStats();

  // 4. Held-out-tail pruning: the same queries through RankBatch.
  CAME_CHECK(!trainer.entity_store().bounds().empty())
      << "entity store has no panel bounds: pruning would not be measured";
  for (const int64_t batch : {int64_t{1}, int64_t{8}, int64_t{64}}) {
    point.rank_sweeps.push_back(RankAtBatch(&trainer, tc, eval_queries,
                                            filter, batch, metrics.value()));
    const RankSweep& r = point.rank_sweeps.back();
    std::printf(
        "[%s] RankBatch batch=%lld %.0f queries/s panels scored=%lld "
        "skipped=%lld bound_rejects/query=%.2f sit-out share=%.3f\n",
        tag.c_str(), static_cast<long long>(r.batch), r.queries_per_sec,
        static_cast<long long>(r.panels_scored),
        static_cast<long long>(r.panels_skipped), r.bound_rejects_per_query,
        r.sit_out_share);
  }

  point.evictions = stats.evictions;
  point.map_misses = stats.map_misses;
  point.resident_shards = stats.resident_shards;

  std::printf(
      "[%s] entities=%lld train_triples=%lld datagen=%.1fs "
      "train=%.1fs (%.0f triples/s, user %.1fs sys %.1fs, evictions "
      "ent=%lld ent_m+ent_v=%lld) eval=%.1fs mrr=%.4f evictions=%lld\n",
      tag.c_str(), static_cast<long long>(point.entities),
      static_cast<long long>(point.train_triples), point.datagen_seconds,
      point.train_seconds, point.triples_per_sec, point.train_user_seconds,
      point.train_sys_seconds,
      static_cast<long long>(point.train_ent_evictions),
      static_cast<long long>(point.train_moment_evictions), point.eval_seconds,
      point.mrr, static_cast<long long>(point.evictions));

  std::filesystem::remove_all(dir);
  return point;
}

void WritePoint(JsonWriter* w, const PointResult& p) {
  w->BeginObject();
  w->Key("entities");
  w->Int(p.entities);
  w->Key("train_triples");
  w->Int(p.train_triples);
  w->Key("datagen_seconds");
  w->Double(p.datagen_seconds);
  w->Key("train_seconds");
  w->Double(p.train_seconds);
  w->Key("triples_per_sec");
  w->Double(p.triples_per_sec);
  w->Key("train_user_seconds");
  w->Double(p.train_user_seconds);
  w->Key("train_sys_seconds");
  w->Double(p.train_sys_seconds);
  w->Key("train_ent_evictions");
  w->Int(p.train_ent_evictions);
  w->Key("train_moment_evictions");
  w->Int(p.train_moment_evictions);
  w->Key("eval_seconds");
  w->Double(p.eval_seconds);
  w->Key("mrr");
  w->Double(p.mrr);
  w->Key("hits_at_10");
  w->Double(p.hits10);
  w->Key("shard_evictions");
  w->Int(p.evictions);
  w->Key("shard_map_misses");
  w->Int(p.map_misses);
  w->Key("resident_shards");
  w->Int(p.resident_shards);
  w->Key("rank_batch_sweeps");
  w->BeginArray();
  for (const RankSweep& r : p.rank_sweeps) {
    w->BeginObject();
    w->Key("batch");
    w->Int(r.batch);
    w->Key("queries_per_sec");
    w->Double(r.queries_per_sec);
    w->Key("panels_scored");
    w->Int(r.panels_scored);
    w->Key("panels_skipped");
    w->Int(r.panels_skipped);
    w->Key("bound_rejects_per_query");
    w->Double(r.bound_rejects_per_query);
    w->Key("sit_out_share");
    w->Double(r.sit_out_share);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_flag = [&](const char* name, int64_t* out) {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      Result<int64_t> v = flags::ParseInt(arg.substr(prefix.size()));
      CAME_CHECK(v.ok()) << "bad flag " << arg;
      *out = v.value();
      return true;
    };
    if (int_flag("entities", &args.entities)) continue;
    if (int_flag("triples", &args.triples)) continue;
    if (int_flag("rss_budget_mb", &args.rss_budget_mb)) continue;
    if (int_flag("rows_per_shard", &args.rows_per_shard)) continue;
    if (int_flag("max_resident", &args.max_resident)) continue;
    if (int_flag("dim", &args.dim)) continue;
    if (int_flag("eval_queries", &args.eval_queries)) continue;
    if (arg.rfind("--work_dir=", 0) == 0) {
      args.work_dir = arg.substr(std::strlen("--work_dir="));
      continue;
    }
    if (arg.rfind("--json_out=", 0) == 0) {
      args.json_out = arg.substr(std::strlen("--json_out="));
      continue;
    }
    CAME_CHECK(false) << "unknown flag " << arg;
  }

  // Calibration point at 1/10 scale, then the headline point.
  const PointResult small =
      RunPoint(args, args.entities / 10, args.triples / 10, "calibration");
  const PointResult big =
      RunPoint(args, args.entities, args.triples, "headline");

  const int64_t rss_mb = PeakRssMb();
  const bool within_budget = rss_mb <= args.rss_budget_mb;
  // What the three entity-family tables would cost fully resident: the
  // number the sharded path is beating.
  const double in_ram_mb = 3.0 * static_cast<double>(big.entities) *
                           static_cast<double>(args.dim) * 4.0 / (1024 * 1024);

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("sharded_scale");
  bench::WriteRuntimeConfig(&w);
  w.Key("dim");
  w.Int(args.dim);
  w.Key("rows_per_shard");
  w.Int(args.rows_per_shard);
  w.Key("max_resident_shards");
  w.Int(args.max_resident);
  w.Key("points");
  w.BeginArray();
  WritePoint(&w, small);
  WritePoint(&w, big);
  w.EndArray();
  w.Key("peak_rss_mb");
  w.Int(rss_mb);
  w.Key("rss_budget_mb");
  w.Int(args.rss_budget_mb);
  w.Key("within_budget");
  w.Bool(within_budget);
  w.Key("entity_tables_in_ram_mb");
  w.Double(in_ram_mb);
  w.EndObject();
  const Status written = w.WriteFile(args.json_out);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json_out.c_str());

  std::printf("peak RSS %lld MB (budget %lld MB) — %s\n",
              static_cast<long long>(rss_mb),
              static_cast<long long>(args.rss_budget_mb),
              within_budget ? "within budget" : "OVER BUDGET");
  return within_budget ? 0 : 1;
}

}  // namespace
}  // namespace came

int main(int argc, char** argv) { return came::Main(argc, argv); }
