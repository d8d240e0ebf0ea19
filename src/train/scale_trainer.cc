#include "train/scale_trainer.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "common/io.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "infer/candidate_panels.h"
#include "infer/score_server.h"

namespace came::train {

namespace {

/// Numerically stable logistic loss: -log sigmoid(s) for label 1,
/// -log(1 - sigmoid(s)) for label 0.
double LogisticLoss(double s, double label) {
  return std::max(s, 0.0) - s * label + std::log1p(std::exp(-std::abs(s)));
}

double Sigmoid(double s) {
  if (s >= 0.0) return 1.0 / (1.0 + std::exp(-s));
  const double e = std::exp(s);
  return e / (1.0 + e);
}

/// Index of `row` inside sorted-unique `rows`.
size_t RowSlot(const std::vector<int64_t>& rows, int64_t row) {
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  return static_cast<size_t>(it - rows.begin());
}

/// Sparse Adam on one row: the three stores have independent residency,
/// so holding one pointer from each at a time is safe.
void AdamRow(const ScaleTrainConfig& config, double bc1, double bc2,
             tensor::ShardStore* w_store, tensor::ShardStore* m_store,
             tensor::ShardStore* v_store, int64_t row, const double* grad) {
  float* w = w_store->MutableRow(row);
  float* m = m_store->MutableRow(row);
  float* v = v_store->MutableRow(row);
  for (int64_t k = 0; k < config.dim; ++k) {
    const auto uk = static_cast<size_t>(k);
    const double g = grad[uk];
    const double mk =
        config.beta1 * static_cast<double>(m[uk]) + (1.0 - config.beta1) * g;
    const double vk = config.beta2 * static_cast<double>(v[uk]) +
                      (1.0 - config.beta2) * g * g;
    m[uk] = static_cast<float>(mk);
    v[uk] = static_cast<float>(vk);
    const double update =
        config.lr * (mk / bc1) / (std::sqrt(vk / bc2) + config.eps);
    w[uk] = static_cast<float>(static_cast<double>(w[uk]) - update);
  }
}

/// One slab's share of an entity sweep: [adam_begin, adam_end) of the
/// pending step's rows and [copy_begin, copy_end) of the gathered rows.
struct SlabWork {
  int64_t slab;
  size_t adam_begin;
  size_t adam_end;
  size_t copy_begin;
  size_t copy_end;
  int64_t mapped = 0;  // how many of the swept stores map the slab
};

/// Orders `work` (ascending slabs) so the slabs mapped in the most of
/// `stores` come first, ties by slab index: under an LRU budget the
/// resident slabs are all hits and only the missing ones fault, where an
/// ascending walk over one slab more than the budget misses every slab.
void ResidentFirst(std::vector<SlabWork>* work,
                   std::initializer_list<const tensor::ShardStore*> stores) {
  for (SlabWork& w : *work) {
    for (const tensor::ShardStore* store : stores) {
      w.mapped += store->ShardResident(w.slab) ? 1 : 0;
    }
  }
  std::stable_sort(work->begin(), work->end(),
                   [](const SlabWork& x, const SlabWork& y) {
                     return x.mapped > y.mapped;
                   });
}

}  // namespace

Status TsvTripleSource::Reset() { return reader_.Open(path_); }

Result<bool> TsvTripleSource::Next(kg::Triple* t) {
  return reader_.NextTriple(num_entities_, num_relations_, t);
}

Result<ScaleTrainer> ScaleTrainer::Create(int64_t num_entities,
                                          int64_t num_relations,
                                          const ScaleTrainConfig& config) {
  if (num_entities <= 0 || num_relations <= 0) {
    return Status::InvalidArgument("need positive entity/relation counts");
  }
  if (config.dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (config.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (config.negatives < 0) {
    return Status::InvalidArgument("negatives must be non-negative");
  }
  if (config.lr <= 0.0 || config.eps <= 0.0) {
    return Status::InvalidArgument("lr and eps must be positive");
  }
  if (config.beta1 < 0.0 || config.beta1 >= 1.0 || config.beta2 < 0.0 ||
      config.beta2 >= 1.0) {
    return Status::InvalidArgument("betas must lie in [0, 1)");
  }
  if (config.eval_panel_rows <= 0 || config.eval_query_batch <= 0) {
    return Status::InvalidArgument("eval panel/batch sizes must be positive");
  }

  ScaleTrainer trainer;
  trainer.num_entities_ = num_entities;
  trainer.num_relations_ = num_relations;
  trainer.config_ = config;
  trainer.rng_ = Rng(config.seed);

  // Entity-family tables shard per the config; relation tables are tiny
  // by comparison and always live in one slab.
  const bool on_disk = !config.store_dir.empty();
  if (on_disk) {
    if (::mkdir(config.store_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create " + config.store_dir);
    }
  }
  const tensor::ShardStoreOptions ent_opts = {
      .rows_per_shard = config.rows_per_shard,
      .max_resident_shards = config.max_resident_shards,
  };
  const auto make = [&](const char* name, int64_t rows,
                        bool shard) -> Result<tensor::ShardStore> {
    if (!on_disk) return tensor::ShardStore::InRam(rows, config.dim);
    return tensor::ShardStore::Create(
        config.store_dir + "/" + name, rows, config.dim,
        shard ? ent_opts : tensor::ShardStoreOptions{});
  };
  struct Table {
    tensor::ShardStore* store;
    const char* name;
    int64_t rows;
    bool shard;
  };
  const Table tables[] = {
      {&trainer.entities_, "ent", num_entities, true},
      {&trainer.ent_m_, "ent_m", num_entities, true},
      {&trainer.ent_v_, "ent_v", num_entities, true},
      {&trainer.relations_, "rel", num_relations, false},
      {&trainer.rel_m_, "rel_m", num_relations, false},
      {&trainer.rel_v_, "rel_v", num_relations, false},
  };
  for (const Table& t : tables) {
    Result<tensor::ShardStore> made = make(t.name, t.rows, t.shard);
    if (!made.ok()) return made.status();
    *t.store = std::move(made).value();
  }

  // Sequential row-order init from a dedicated stream: what a row gets
  // depends only on (seed, draw order), never on the shard geometry.
  // Moments stay at the stores' zero fill.
  Rng init_rng(config.seed ^ 0x5ca1e7ab1eULL);
  const auto fill = [&](tensor::ShardStore* store) {
    for (int64_t row = 0; row < store->rows(); ++row) {
      float* w = store->MutableRow(row);
      for (int64_t k = 0; k < config.dim; ++k) {
        w[k] = static_cast<float>(
            init_rng.Uniform(-config.init_scale, config.init_scale));
      }
    }
  };
  fill(&trainer.entities_);
  fill(&trainer.relations_);
  return trainer;
}

Result<double> ScaleTrainer::TrainEpoch(TripleSource* source) {
  Result<double> loss = TrainBatches(source);
  // Every return path lands here, so the stores always leave holding each
  // trained batch's full step. The moments sit idle until the next epoch:
  // unmapping them keeps their pages out of RSS in between.
  SweepEntities({}, nullptr);
  ent_m_.Unmap();
  ent_v_.Unmap();
  return loss;
}

Result<double> ScaleTrainer::TrainBatches(TripleSource* source) {
  CAME_RETURN_IF_ERROR(source->Reset());
  double total_loss = 0.0;
  int64_t total_samples = 0;
  std::vector<Sample> batch;
  batch.reserve(static_cast<size_t>(config_.batch_size) *
                static_cast<size_t>(1 + config_.negatives));
  bool done = false;
  while (!done) {
    batch.clear();
    for (int64_t i = 0; i < config_.batch_size; ++i) {
      kg::Triple t;
      Result<bool> got = source->Next(&t);
      if (!got.ok()) return got.status();
      if (!got.value()) {
        done = true;
        break;
      }
      if (t.head < 0 || t.head >= num_entities_ || t.rel < 0 ||
          t.rel >= num_relations_ || t.tail < 0 || t.tail >= num_entities_) {
        return Status::InvalidArgument(
            "triple (" + std::to_string(t.head) + ", " +
            std::to_string(t.rel) + ", " + std::to_string(t.tail) +
            ") outside " + std::to_string(num_entities_) + " entities, " +
            std::to_string(num_relations_) + " relations");
      }
      batch.push_back(Sample{t.head, t.rel, t.tail, 1.0f});
      // Negative tails drawn sequentially from the trainer stream: the
      // sample list is a pure function of (data order, seed).
      for (int64_t k = 0; k < config_.negatives; ++k) {
        const auto corrupt = static_cast<int64_t>(
            rng_.UniformU64(static_cast<uint64_t>(num_entities_)));
        batch.push_back(Sample{t.head, t.rel, corrupt, 0.0f});
      }
    }
    if (batch.empty()) break;
    total_loss += TrainBatch(batch);
    total_samples += static_cast<int64_t>(batch.size());
  }
  if (total_samples == 0) {
    return Status::InvalidArgument("triple source produced no triples");
  }
  return total_loss / static_cast<double>(total_samples);
}

void ScaleTrainer::SweepEntities(const std::vector<int64_t>& rows,
                                 float* scratch) {
  const auto d = static_cast<size_t>(config_.dim);
  const int64_t rows_per_shard = entities_.rows_per_shard();
  // Both row lists ascend, so each slab's share of either is one range.
  std::vector<SlabWork> work;
  size_t a = 0;
  size_t c = 0;
  while (a < pending_rows_.size() || c < rows.size()) {
    int64_t slab = INT64_MAX;
    if (a < pending_rows_.size()) slab = pending_rows_[a] / rows_per_shard;
    if (c < rows.size()) slab = std::min(slab, rows[c] / rows_per_shard);
    const int64_t slab_end = (slab + 1) * rows_per_shard;
    SlabWork w{slab, a, a, c, c};
    while (a < pending_rows_.size() && pending_rows_[a] < slab_end) ++a;
    while (c < rows.size() && rows[c] < slab_end) ++c;
    w.adam_end = a;
    w.copy_end = c;
    work.push_back(w);
  }
  ResidentFirst(&work, {&entities_, &ent_m_, &ent_v_});

  for (const SlabWork& w : work) {
    // The Adam rows first, so the copies below read the stepped values.
    for (size_t i = w.adam_begin; i < w.adam_end; ++i) {
      AdamRow(config_, pending_bc1_, pending_bc2_, &entities_, &ent_m_,
              &ent_v_, pending_rows_[i], &pending_grad_[i * d]);
    }
    for (size_t i = w.copy_begin; i < w.copy_end; ++i) {
      std::memcpy(&scratch[i * d], entities_.Row(rows[i]), sizeof(float) * d);
    }
  }
  pending_rows_.clear();
  pending_grad_.clear();
}

double ScaleTrainer::TrainBatch(const std::vector<Sample>& samples) {
  const int64_t d = config_.dim;
  const size_t n = samples.size();

  // Sorted-unique touched rows: gradients and Adam steps index these, so
  // the arithmetic order is layout-independent.
  std::vector<int64_t> e_rows;
  std::vector<int64_t> r_rows;
  e_rows.reserve(n * 2);
  r_rows.reserve(n);
  for (const Sample& s : samples) {
    e_rows.push_back(s.head);
    e_rows.push_back(s.tail);
    r_rows.push_back(s.rel);
  }
  std::sort(e_rows.begin(), e_rows.end());
  e_rows.erase(std::unique(e_rows.begin(), e_rows.end()), e_rows.end());
  std::sort(r_rows.begin(), r_rows.end());
  r_rows.erase(std::unique(r_rows.begin(), r_rows.end()), r_rows.end());

  // Gather into scratch copies: ShardStore pointers can be invalidated by
  // eviction, so compute never touches the mapping directly. The entity
  // gather shares its sweep with the previous batch's entity step.
  std::vector<float> e_scratch(e_rows.size() * static_cast<size_t>(d));
  std::vector<float> r_scratch(r_rows.size() * static_cast<size_t>(d));
  SweepEntities(e_rows, e_scratch.data());
  for (size_t i = 0; i < r_rows.size(); ++i) {
    std::memcpy(&r_scratch[i * static_cast<size_t>(d)],
                relations_.Row(r_rows[i]),
                sizeof(float) * static_cast<size_t>(d));
  }

  // Per-sample forward/backward. Each iteration writes its own slots
  // only, so the result is identical at any thread count.
  std::vector<double> losses(n);
  std::vector<double> gs(n);
  ParallelFor(0, static_cast<int64_t>(n), 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const Sample& s = samples[static_cast<size_t>(i)];
      const float* eh =
          &e_scratch[RowSlot(e_rows, s.head) * static_cast<size_t>(d)];
      const float* et =
          &e_scratch[RowSlot(e_rows, s.tail) * static_cast<size_t>(d)];
      const float* rr =
          &r_scratch[RowSlot(r_rows, s.rel) * static_cast<size_t>(d)];
      double score = 0.0;
      for (int64_t k = 0; k < d; ++k) {
        score += static_cast<double>(eh[k]) * static_cast<double>(rr[k]) *
                 static_cast<double>(et[k]);
      }
      losses[static_cast<size_t>(i)] =
          LogisticLoss(score, static_cast<double>(s.label));
      gs[static_cast<size_t>(i)] =
          Sigmoid(score) - static_cast<double>(s.label);
    }
  });

  double batch_loss = 0.0;
  for (double l : losses) batch_loss += l;

  // Sequential scatter in sample order: unique rows may appear in many
  // samples, so accumulation order is pinned here, not left to threads.
  std::vector<double> e_grad(e_scratch.size(), 0.0);
  std::vector<double> r_grad(r_scratch.size(), 0.0);
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    const size_t hi = RowSlot(e_rows, s.head) * static_cast<size_t>(d);
    const size_t ti = RowSlot(e_rows, s.tail) * static_cast<size_t>(d);
    const size_t ri = RowSlot(r_rows, s.rel) * static_cast<size_t>(d);
    const double g = gs[i];
    for (int64_t k = 0; k < d; ++k) {
      const auto uk = static_cast<size_t>(k);
      const double eh = e_scratch[hi + uk];
      const double et = e_scratch[ti + uk];
      const double rr = r_scratch[ri + uk];
      e_grad[hi + uk] += g * rr * et;
      e_grad[ti + uk] += g * rr * eh;
      r_grad[ri + uk] += g * eh * et;
    }
  }

  // Sparse Adam over the touched rows. The relations sit in one slab and
  // step now; the entity step waits for the next sweep (SweepEntities).
  ++step_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(step_));
  for (size_t i = 0; i < r_rows.size(); ++i) {
    AdamRow(config_, bc1, bc2, &relations_, &rel_m_, &rel_v_, r_rows[i],
            &r_grad[i * static_cast<size_t>(d)]);
  }
  pending_rows_ = std::move(e_rows);
  pending_grad_ = std::move(e_grad);
  pending_bc1_ = bc1;
  pending_bc2_ = bc2;
  return batch_loss;
}

infer::QueryEncoder ScaleTrainer::MakeQueryEncoder() {
  const int64_t d = config_.dim;
  // Built from row copies: only one pointer into a given store is live at
  // a time (a second Row() may evict the slab).
  return [this, d](const std::vector<int64_t>& heads,
                   const std::vector<int64_t>& rels) {
    // fully-written: every row is copied from its head row, then scaled.
    tensor::Tensor q = tensor::Tensor::Uninitialized(
        {static_cast<int64_t>(heads.size()), d});
    for (size_t i = 0; i < heads.size(); ++i) {
      float* qrow = q.data() + static_cast<int64_t>(i) * d;
      std::memcpy(qrow, entities_.Row(heads[i]),
                  sizeof(float) * static_cast<size_t>(d));
      const float* rr = relations_.Row(rels[i]);
      for (int64_t k = 0; k < d; ++k) qrow[k] *= rr[k];
    }
    return q;
  };
}

Result<eval::Metrics> ScaleTrainer::EvaluateFiltered(
    TripleSource* queries, const kg::FilterIndex& filter) {
  CAME_RETURN_IF_ERROR(queries->Reset());
  infer::ShardStorePanelSource source(&entities_);
  infer::ScoreServerConfig server_config;
  server_config.panel_width = config_.eval_panel_rows;
  server_config.num_relations = num_relations_;
  infer::ScoreServer server(MakeQueryEncoder(), &source, server_config);

  eval::Metrics metrics;
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  std::vector<int64_t> tails;
  bool done = false;
  while (!done) {
    heads.clear();
    rels.clear();
    tails.clear();
    for (int64_t i = 0; i < config_.eval_query_batch; ++i) {
      kg::Triple t;
      Result<bool> got = queries->Next(&t);
      if (!got.ok()) return got.status();
      if (!got.value()) {
        done = true;
        break;
      }
      heads.push_back(t.head);
      rels.push_back(t.rel);
      tails.push_back(t.tail);
    }
    if (heads.empty()) break;
    Result<std::vector<double>> ranks =
        server.RankBatch(heads, rels, tails, &filter);
    if (!ranks.ok()) return ranks.status();
    for (const double rank : ranks.value()) metrics.AddRank(rank);
  }
  return metrics;
}

tensor::ShardStore::Stats ScaleTrainer::moment_stats() const {
  const tensor::ShardStore::Stats m = ent_m_.GetStats();
  const tensor::ShardStore::Stats v = ent_v_.GetStats();
  return tensor::ShardStore::Stats{
      .map_hits = m.map_hits + v.map_hits,
      .map_misses = m.map_misses + v.map_misses,
      .evictions = m.evictions + v.evictions,
      .pin_blocked_evictions =
          m.pin_blocked_evictions + v.pin_blocked_evictions,
      .resident_shards = m.resident_shards + v.resident_shards,
      .resident_bytes = m.resident_bytes + v.resident_bytes,
  };
}

uint32_t ScaleTrainer::ParamsCrc() {
  const uint32_t pair[2] = {entities_.ContentCrc32(),
                            relations_.ContentCrc32()};
  return io::Crc32(pair, sizeof(pair), 0);
}

}  // namespace came::train
