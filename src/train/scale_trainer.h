#ifndef CAME_TRAIN_SCALE_TRAINER_H_
#define CAME_TRAIN_SCALE_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "eval/metrics.h"
#include "infer/score_server.h"
#include "kg/filter_index.h"
#include "kg/kg_files.h"
#include "kg/triple_store.h"
#include "tensor/shard_store.h"

namespace came::train {

/// One-pass triple iterator: the ScaleTrainer's only view of the data, so
/// a billion-triple TSV and a small in-memory vector train identically.
class TripleSource {
 public:
  virtual ~TripleSource() = default;
  /// Rewinds to the first triple.
  virtual Status Reset() = 0;
  /// Fetches the next triple; returns false at end of stream.
  virtual Result<bool> Next(kg::Triple* t) = 0;
};

/// In-memory source (small-scale runs and parity tests).
class VectorTripleSource : public TripleSource {
 public:
  explicit VectorTripleSource(std::vector<kg::Triple> triples)
      : triples_(std::move(triples)) {}
  Status Reset() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(kg::Triple* t) override {
    if (pos_ >= triples_.size()) return false;
    *t = triples_[pos_++];
    return true;
  }

 private:
  std::vector<kg::Triple> triples_;
  size_t pos_ = 0;
};

/// Streaming source over a triple file of a KG directory (train.tsv and
/// friends, read by kg::TsvReader::NextTriple as Dataset::LoadTsv reads
/// them). Bounded memory: one line at a time; ids are range-checked
/// against the vocab sizes.
class TsvTripleSource : public TripleSource {
 public:
  TsvTripleSource(std::string path, int64_t num_entities,
                  int64_t num_relations)
      : path_(std::move(path)),
        num_entities_(num_entities),
        num_relations_(num_relations) {}
  Status Reset() override;
  Result<bool> Next(kg::Triple* t) override;

 private:
  std::string path_;
  int64_t num_entities_;
  int64_t num_relations_;
  kg::TsvReader reader_;
};

/// Beyond-RAM trainer configuration. With `store_dir` empty every table
/// is an anonymous in-RAM ShardStore; with a directory set, the entity
/// tables (embeddings + both Adam moments) live in mmap-backed slabs
/// under it, `rows_per_shard` rows each, at most `max_resident_shards`
/// mapped at once. Either way the compute path is identical — sharding
/// is a storage layout, which is what makes the sharded-vs-in-RAM
/// bitwise-parity guarantee testable.
struct ScaleTrainConfig {
  int64_t dim = 32;
  double lr = 0.01;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double init_scale = 0.1;
  int64_t negatives = 4;  // tail corruptions per positive
  int64_t batch_size = 512;
  uint64_t seed = 7;

  std::string store_dir;            // empty => in-RAM
  int64_t rows_per_shard = 0;       // 0 => single shard
  int64_t max_resident_shards = 0;  // 0 => unlimited residency

  int64_t eval_panel_rows = 4096;   // filtered-eval GEMM panel height
  int64_t eval_query_batch = 64;
};

/// DistMult link-prediction trainer whose every table — entity and
/// relation embeddings plus their Adam first/second moments — is a
/// ShardStore, so training and filtered evaluation scale past RAM.
///
/// Determinism contract (the sharded-vs-in-RAM and threads-1-vs-4 parity
/// suite pins this): negatives are drawn sequentially from the trainer
/// Rng; per-sample forward/backward runs under ParallelFor writing
/// per-sample slots only; gradients scatter into per-row contribution
/// lists accumulated in sample order; sparse Adam updates each sorted
/// unique touched row once per step. No step depends on the thread count,
/// the shard geometry or which slabs happen to be mapped.
///
/// Residency: each batch makes one sweep over the entity slabs, resident
/// slabs first, so under a residency budget only the slab that is not
/// mapped faults. The sweep applies the previous batch's entity Adam step
/// and then gathers this batch's rows, slab by slab, so a gather reads the
/// updated rows. TrainEpoch applies the last pending step on every return
/// path and unmaps the idle Adam moments. Neither a gather copy nor a
/// row's Adam update reads any row but its own, so the visiting order
/// changes no bits. Relations live in one slab and step immediately.
class ScaleTrainer {
 public:
  /// Empty shell (Result<T> plumbing); only Create() yields a usable one.
  ScaleTrainer() = default;

  static Result<ScaleTrainer> Create(int64_t num_entities,
                                     int64_t num_relations,
                                     const ScaleTrainConfig& config);

  /// One pass over `source` (positives; negatives are sampled inside).
  /// Returns the mean logistic loss per sample.
  Result<double> TrainEpoch(TripleSource* source);

  /// Filtered tail-ranking over `queries` in the Bordes et al. protocol,
  /// swept shard panel by shard panel so the score matrix never exceeds
  /// [query_batch, eval_panel_rows]. Panel pruning needs the entity
  /// store's bounds, which only Seal() computes and TrainEpoch drops: an
  /// unsealed entity store is swept without pruning (every panel scored),
  /// with the same ranks.
  Result<eval::Metrics> EvaluateFiltered(TripleSource* queries,
                                         const kg::FilterIndex& filter);

  /// The DistMult query encoder EvaluateFiltered serves with: one h∘r row
  /// per (head, rel), read from the live tables. It holds `this`, so it
  /// must not outlive the trainer.
  infer::QueryEncoder MakeQueryEncoder();

  /// CRC32 over entity then relation parameter bytes (parity checks).
  uint32_t ParamsCrc();

  int64_t num_entities() const { return num_entities_; }
  int64_t num_relations() const { return num_relations_; }
  int64_t dim() const { return config_.dim; }
  int64_t step() const { return step_; }

  tensor::ShardStore& entity_store() { return entities_; }
  tensor::ShardStore& relation_store() { return relations_; }
  /// The entity Adam moment stores' (m and v) Stats, summed field by field.
  tensor::ShardStore::Stats moment_stats() const;

 private:
  struct Sample {
    int64_t head;
    int64_t rel;
    int64_t tail;
    float label;
  };

  /// TrainEpoch's batch loop; TrainEpoch flushes the deferred entity
  /// step after it, whichever way it returns.
  Result<double> TrainBatches(TripleSource* source);
  /// Runs forward+backward on one batch and steps the relations; the
  /// entity step waits for the next sweep. Returns the summed loss.
  double TrainBatch(const std::vector<Sample>& samples);
  /// One pass over the entity slabs, resident ones first. In each slab it
  /// applies the pending entity Adam step, then copies the slab's share
  /// of `rows` (sorted unique) into `scratch` (`rows.size()` x dim).
  void SweepEntities(const std::vector<int64_t>& rows, float* scratch);

  int64_t num_entities_ = 0;
  int64_t num_relations_ = 0;
  ScaleTrainConfig config_;
  Rng rng_{0};
  int64_t step_ = 0;

  tensor::ShardStore entities_;
  tensor::ShardStore relations_;
  tensor::ShardStore ent_m_;
  tensor::ShardStore ent_v_;
  tensor::ShardStore rel_m_;
  tensor::ShardStore rel_v_;

  // The last batch's entity Adam step, not yet applied: its sorted unique
  // rows, their gradients (rows x dim) and its bias corrections.
  std::vector<int64_t> pending_rows_;
  std::vector<double> pending_grad_;
  double pending_bc1_ = 1.0;
  double pending_bc2_ = 1.0;
};

}  // namespace came::train

#endif  // CAME_TRAIN_SCALE_TRAINER_H_
