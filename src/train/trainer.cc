#include "train/trainer.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "tensor/tensor_ops.h"
#include "train/checkpoint.h"

namespace came::train {

Trainer::Trainer(baselines::KgcModel* model, const kg::Dataset& dataset,
                 const TrainConfig& config)
    : model_(model),
      dataset_(dataset),
      config_(config),
      train_(dataset.TrainWithInverses()),
      train_filter_(dataset.num_entities(), dataset.num_relations()),
      sampler_(&train_filter_, dataset.num_entities(), config.seed ^ 0x5151),
      rng_(config.seed) {
  CAME_CHECK(model != nullptr);
  CAME_CHECK(!dataset.train.empty());
  // The epoch loops advance by batch_size; 0 would never terminate.
  CAME_CHECK_GT(config.batch_size, 0);
  order_.resize(train_.size());
  train_filter_.AddTriples(dataset.train);
  const std::vector<ag::Var> params = model->Parameters();
  optimizer_ = std::make_unique<optim::Adam>(params, config.lr, 0.9f, 0.999f,
                                             1e-8f, config.weight_decay);
  // Negative-sampling rows are independent too, but splitting them would
  // regroup the sums in their loss and gradients and move the last bits
  // of every trained baseline, so they run as one micro-batch per batch.
  const int64_t k = model->regime() == baselines::TrainingRegime::kOneToN &&
                            model->score_rows_independent()
                        ? kMicroBatches
                        : 1;
  micro_batches_.reserve(static_cast<size_t>(k));
  for (int64_t m = 0; m < k; ++m) micro_batches_.emplace_back(params);
  stopwatch_.Reset();
}

void Trainer::Train(const EpochCallback& cb) {
  while (epochs_run_ < config_.epochs) {
    const float loss = RunEpoch();
    if (cb) cb({epochs_run_, loss, stopwatch_.ElapsedSeconds()});
    MaybeCheckpoint();
  }
}

void Trainer::MaybeCheckpoint() const {
  if (config_.checkpoint_path.empty()) return;
  const int every = std::max(1, config_.checkpoint_every);
  if (epochs_run_ % every != 0 && epochs_run_ != config_.epochs) return;
  const Status st = SaveCheckpoint(config_.checkpoint_path);
  if (!st.ok()) {
    CAME_LOG(Warning) << "checkpoint save failed (training continues): "
                      << st.ToString();
  }
}

eval::Metrics Trainer::TrainWithBestValidation(
    const eval::Evaluator& evaluator, int eval_every, int64_t valid_sample,
    const EpochCallback& cb) {
  CAME_CHECK_GT(eval_every, 0);
  CAME_CHECK(!dataset_.valid.empty()) << "no validation split";
  eval::EvalConfig ec;
  ec.max_triples = valid_sample;
  Train([&](const EpochStats& stats) {
    if (cb) cb(stats);
    if (stats.epoch % eval_every != 0 && stats.epoch != config_.epochs) return;
    const eval::Metrics m = evaluator.Evaluate(model_, dataset_.valid, ec);
    // The paper selects checkpoints on validation MRR; Hits@10 only
    // breaks exact MRR ties.
    const bool improved =
        best_snapshot_.empty() || m.Mrr() > best_.Mrr() ||
        (m.Mrr() == best_.Mrr() && m.Hits10() > best_.Hits10());
    if (improved) {
      best_ = m;
      best_snapshot_ = model_->SnapshotParameters();
    }
  });
  if (!best_snapshot_.empty()) model_->RestoreParameters(best_snapshot_);
  return best_;
}

float Trainer::RunEpoch() {
  model_->SetTraining(true);
  // Shuffle a fresh identity permutation rather than the triples in
  // place: the epoch's visit order then depends only on the Rng state at
  // epoch start, so a resumed run replays the same order as an
  // uninterrupted one.
  std::iota(order_.begin(), order_.end(), size_t{0});
  rng_.Shuffle(&order_);
  const bool sampled =
      model_->regime() != baselines::TrainingRegime::kOneToN;
  const int64_t k = static_cast<int64_t>(micro_batches_.size());
  double total = 0.0;
  int64_t batches = 0;
  for (size_t start = 0; start < train_.size();
       start += static_cast<size_t>(config_.batch_size)) {
    const size_t end =
        std::min(train_.size(), start + static_cast<size_t>(config_.batch_size));
    const int64_t b = static_cast<int64_t>(end - start);
    if (sampled) {
      // The sampler's one stream is drawn here, in batch order, so the
      // negatives never depend on the grid or the thread count.
      negatives_.clear();
      for (size_t i = start; i < end; ++i) {
        const kg::Triple& t = EpochTriple(i);
        sampler_.AppendSamples(t.head, t.rel, config_.negatives, &negatives_);
      }
    }
    // One model-Rng draw per step seeds every micro-batch's dropout
    // stream: the masks depend on (step, micro-batch) only, and the
    // checkpointed model-Rng state still replays the run.
    const uint64_t dropout_seed = model_->mutable_rng()->NextU64();
    // Last step's gradients go before the grid, so the slot buffers it
    // allocates can reuse theirs.
    optimizer_->ZeroGrad();
    // The grid depends on b alone: micro-batch m takes b / k rows, plus
    // one for the first b % k. Each is one chunk, so the pool runs them
    // concurrently while every op inside one runs inline (a one-chunk
    // grid runs on this thread, its ops on the pool).
    ParallelFor(0, k, /*grain=*/1, [&](int64_t lo, int64_t hi) {
      for (int64_t m = lo; m < hi; ++m) {
        MicroBatch& mb = micro_batches_[static_cast<size_t>(m)];
        mb.slots.Clear();
        mb.loss = 0.0f;
        const int64_t rows = b / k + (m < b % k ? 1 : 0);
        if (rows == 0) continue;
        Rng dropout_rng(dropout_seed + static_cast<uint64_t>(m));
        RunMicroBatch(start, m * (b / k) + std::min(m, b % k), rows, b,
                      &dropout_rng, &mb);
      }
    });
    // Ordered reduction on the calling thread: each parameter's gradient
    // is the sum of its micro-batch slots in grid order (with one
    // micro-batch, its slot's buffer).
    float loss = 0.0f;
    for (MicroBatch& mb : micro_batches_) {
      mb.slots.AddToLeaves();
      loss += mb.loss;
    }
    if (config_.grad_clip > 0.0f) {
      optim::ClipGradNorm(model_->Parameters(), config_.grad_clip);
    }
    optimizer_->Step();
    total += loss;
    ++batches;
  }
  ++epochs_run_;
  return static_cast<float>(total / std::max<int64_t>(1, batches));
}

void Trainer::RunMicroBatch(size_t start, int64_t first, int64_t rows,
                            int64_t batch_rows, Rng* dropout_rng,
                            MicroBatch* mb) {
  mb->heads.clear();
  mb->rels.clear();
  mb->tails.clear();
  for (int64_t row = 0; row < rows; ++row) {
    const kg::Triple& t = EpochTriple(start + static_cast<size_t>(first + row));
    mb->heads.push_back(t.head);
    mb->rels.push_back(t.rel);
    mb->tails.push_back(t.tail);
  }
  ag::MicroBatchScope scope(&mb->slots, dropout_rng);
  const ag::Var mean =
      model_->regime() == baselines::TrainingRegime::kOneToN
          ? OneToNLoss(mb)
          : NegativeSamplingLoss(first, mb);
  // Weighting each micro-batch mean by its share of the rows makes the
  // summed loss (and gradient) the mean over the whole batch; a one-
  // micro-batch grid scales by exactly 1.
  ag::Var loss = ag::Scale(
      mean, static_cast<float>(rows) / static_cast<float>(batch_rows));
  loss.Backward();
  mb->loss = loss.value().data()[0];
}

ag::Var Trainer::OneToNLoss(MicroBatch* mb) {
  const int64_t rows = static_cast<int64_t>(mb->heads.size());
  const int64_t n_entities = dataset_.num_entities();
  const float eps = config_.label_smoothing;
  const float off_value = eps / static_cast<float>(n_entities);
  const float on_value = 1.0f - eps + off_value;
  tensor::Tensor labels = tensor::Tensor::Full({rows, n_entities}, off_value);
  for (int64_t row = 0; row < rows; ++row) {
    const size_t i = static_cast<size_t>(row);
    for (int64_t tail : train_filter_.Tails(mb->heads[i], mb->rels[i])) {
      labels.data()[row * n_entities + tail] = on_value;
    }
  }
  return ag::BceWithLogitsMean(model_->ScoreAllTails(mb->heads, mb->rels),
                               labels);
}

ag::Var Trainer::NegativeSamplingLoss(int64_t first, MicroBatch* mb) {
  const int64_t rows = static_cast<int64_t>(mb->heads.size());
  const int64_t k = config_.negatives;
  mb->rep_heads.clear();
  mb->rep_rels.clear();
  for (int64_t row = 0; row < rows; ++row) {
    const size_t i = static_cast<size_t>(row);
    mb->rep_heads.insert(mb->rep_heads.end(), static_cast<size_t>(k),
                         mb->heads[i]);
    mb->rep_rels.insert(mb->rep_rels.end(), static_cast<size_t>(k),
                        mb->rels[i]);
  }
  mb->neg_tails.assign(negatives_.begin() + first * k,
                       negatives_.begin() + (first + rows) * k);
  ag::Var pos = model_->ScoreTriples(mb->heads, mb->rels, mb->tails);  // [B]
  ag::Var neg = ag::Reshape(
      model_->ScoreTriples(mb->rep_heads, mb->rep_rels, mb->neg_tails),
      {rows, k});

  const float gamma = config_.margin;
  // L = -mean logsig(gamma + s_pos) - mean_i w_i logsig(-gamma - s_neg).
  ag::Var pos_term =
      ag::Neg(ag::MeanAll(ag::LogSigmoid(ag::AddScalar(pos, gamma))));
  ag::Var neg_logsig =
      ag::LogSigmoid(ag::Neg(ag::AddScalar(neg, gamma)));  // [B,K]
  ag::Var neg_term;
  if (model_->regime() == baselines::TrainingRegime::kSelfAdversarial) {
    ag::Var weights =
        ag::SoftmaxAlong(ag::Scale(neg, config_.adv_temperature), 1)
            .Detach();  // [B,K]
    neg_term = ag::Neg(
        ag::MeanAll(ag::SumAlong(ag::Mul(weights, neg_logsig), 1, false)));
  } else {
    neg_term = ag::Neg(ag::MeanAll(neg_logsig));
  }
  ag::Var loss = ag::Add(pos_term, neg_term);

  // Model-specific auxiliary loss (e.g. TransAE reconstruction).
  std::vector<int64_t> batch_entities = mb->heads;
  batch_entities.insert(batch_entities.end(), mb->tails.begin(),
                        mb->tails.end());
  ag::Var aux = model_->AuxiliaryLoss(batch_entities);
  if (aux.defined()) loss = ag::Add(loss, aux);
  return loss;
}

Status Trainer::SaveCheckpoint(const std::string& path) const {
  CheckpointState st;
  for (const auto& [name, p] : model_->NamedParameters()) {
    st.params.emplace_back(name, p.value());
  }
  st.adam_step = optimizer_->step_count();
  st.adam_m = optimizer_->first_moments();
  st.adam_v = optimizer_->second_moments();
  st.rng_streams = {rng_.GetState(), sampler_.rng_state(),
                    model_->mutable_rng()->GetState()};
  st.epochs_run = epochs_run_;
  st.has_best = !best_snapshot_.empty();
  st.best = best_;
  st.best_snapshot = best_snapshot_;
  return WriteCheckpoint(path, st);
}

Status Trainer::Resume(const std::string& path) {
  CheckpointState st;
  CAME_RETURN_IF_ERROR(ReadCheckpoint(path, &st));

  // Validate every cross-reference before mutating anything, so a bad
  // checkpoint leaves the trainer in its pre-Resume state.
  if (st.rng_streams.size() != 3) {
    return Status::InvalidArgument(
        path + ": expected 3 rng streams (trainer, sampler, model), found " +
        std::to_string(st.rng_streams.size()));
  }
  const auto named = model_->NamedParameters();
  if (st.has_best && st.best_snapshot.size() != named.size()) {
    return Status::InvalidArgument(path + ": best-snapshot tensor count " +
                                   std::to_string(st.best_snapshot.size()) +
                                   " does not match the model's " +
                                   std::to_string(named.size()));
  }
  for (size_t i = 0; st.has_best && i < named.size(); ++i) {
    if (!tensor::SameShape(st.best_snapshot[i].shape(),
                           named[i].second.shape())) {
      return Status::InvalidArgument(path +
                                     ": best-snapshot shape mismatch for " +
                                     named[i].first);
    }
  }
  // Pre-check the optimizer state against the model's parameters (the
  // optimizer was built from them, in the same order) so that once any
  // application starts, nothing can fail halfway.
  if (st.adam_m.size() != named.size() || st.adam_v.size() != named.size()) {
    return Status::InvalidArgument(path + ": Adam moment count mismatch");
  }
  for (size_t i = 0; i < named.size(); ++i) {
    if (!tensor::SameShape(st.adam_m[i].shape(), named[i].second.shape()) ||
        !tensor::SameShape(st.adam_v[i].shape(), named[i].second.shape())) {
      return Status::InvalidArgument(path + ": Adam moment shape mismatch for " +
                                     named[i].first);
    }
  }
  CAME_RETURN_IF_ERROR(model_->LoadParameterValues(st.params));
  CAME_RETURN_IF_ERROR(
      optimizer_->RestoreState(st.adam_step, st.adam_m, st.adam_v));

  rng_.SetState(st.rng_streams[0]);
  sampler_.set_rng_state(st.rng_streams[1]);
  model_->mutable_rng()->SetState(st.rng_streams[2]);
  epochs_run_ = static_cast<int>(st.epochs_run);
  best_ = st.best;
  best_snapshot_ = std::move(st.best_snapshot);
  if (!st.has_best) {
    best_ = eval::Metrics{};
    best_snapshot_.clear();
  }
  return Status::OK();
}

}  // namespace came::train
