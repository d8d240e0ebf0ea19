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
  optimizer_ = std::make_unique<optim::Adam>(
      model->Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
      config.weight_decay);
  stopwatch_.Reset();
}

void Trainer::Train(const EpochCallback& cb) {
  model_->SetTraining(true);
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
  model_->SetTraining(true);
  while (epochs_run_ < config_.epochs) {
    const float loss = RunEpoch();
    if (cb) cb({epochs_run_, loss, stopwatch_.ElapsedSeconds()});
    if (epochs_run_ % eval_every != 0 && epochs_run_ != config_.epochs) {
      MaybeCheckpoint();
      continue;
    }
    const eval::Metrics m =
        evaluator.Evaluate(model_, dataset_.valid, ec);
    // The paper selects checkpoints on validation MRR; Hits@10 only
    // breaks exact MRR ties.
    const bool improved =
        best_snapshot_.empty() || m.Mrr() > best_.Mrr() ||
        (m.Mrr() == best_.Mrr() && m.Hits10() > best_.Hits10());
    if (improved) {
      best_ = m;
      best_snapshot_ = model_->SnapshotParameters();
    }
    MaybeCheckpoint();
  }
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
  float loss = 0.0f;
  switch (model_->regime()) {
    case baselines::TrainingRegime::kOneToN:
      loss = OneToNEpoch();
      break;
    case baselines::TrainingRegime::kNegativeSampling:
      loss = NegativeSamplingEpoch(/*self_adversarial=*/false);
      break;
    case baselines::TrainingRegime::kSelfAdversarial:
      loss = NegativeSamplingEpoch(/*self_adversarial=*/true);
      break;
  }
  ++epochs_run_;
  return loss;
}

float Trainer::OneToNEpoch() {
  const int64_t n_entities = dataset_.num_entities();
  const float eps = config_.label_smoothing;
  const float off_value = eps / static_cast<float>(n_entities);
  const float on_value = 1.0f - eps + off_value;

  double total = 0.0;
  int64_t batches = 0;
  // Hoisted out of the batch loop: the vectors keep their capacity and the
  // label tensor recycles the same pooled buffer every full-sized batch.
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  for (size_t start = 0; start < train_.size();
       start += static_cast<size_t>(config_.batch_size)) {
    const size_t end =
        std::min(train_.size(), start + static_cast<size_t>(config_.batch_size));
    const int64_t b = static_cast<int64_t>(end - start);
    heads.clear();
    rels.clear();
    tensor::Tensor labels =
        tensor::Tensor::Full({b, n_entities}, off_value);
    for (size_t i = start; i < end; ++i) {
      heads.push_back(EpochTriple(i).head);
      rels.push_back(EpochTriple(i).rel);
    }
    // Rows of the multi-label target are independent slabs; scatter the
    // known tails across the pool (reads of the filter index are const).
    ParallelFor(0, b, /*grain=*/16, [&](int64_t lo, int64_t hi) {
      for (int64_t row = lo; row < hi; ++row) {
        const kg::Triple& t = EpochTriple(start + static_cast<size_t>(row));
        for (int64_t tail : train_filter_.Tails(t.head, t.rel)) {
          labels.data()[row * n_entities + tail] = on_value;
        }
      }
    });
    ag::Var scores = model_->ScoreAllTails(heads, rels);
    ag::Var loss = ag::BceWithLogitsMean(scores, labels);
    optimizer_->ZeroGrad();
    loss.Backward();
    if (config_.grad_clip > 0.0f) {
      optim::ClipGradNorm(model_->Parameters(), config_.grad_clip);
    }
    optimizer_->Step();
    total += loss.value().data()[0];
    ++batches;
  }
  return static_cast<float>(total / std::max<int64_t>(1, batches));
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

float Trainer::NegativeSamplingEpoch(bool self_adversarial) {
  const int64_t k = config_.negatives;
  double total = 0.0;
  int64_t batches = 0;
  // Hoisted out of the batch loop so each keeps its capacity across
  // batches instead of reallocating every iteration.
  std::vector<int64_t> heads;
  std::vector<int64_t> rels;
  std::vector<int64_t> tails;
  std::vector<int64_t> rep_heads;
  std::vector<int64_t> rep_rels;
  std::vector<int64_t> neg_tails;
  for (size_t start = 0; start < train_.size();
       start += static_cast<size_t>(config_.batch_size)) {
    const size_t end =
        std::min(train_.size(), start + static_cast<size_t>(config_.batch_size));
    const int64_t b = static_cast<int64_t>(end - start);
    heads.clear();
    rels.clear();
    tails.clear();
    rep_heads.clear();
    rep_rels.clear();
    neg_tails.clear();
    for (size_t i = start; i < end; ++i) {
      const kg::Triple& t = EpochTriple(i);
      heads.push_back(t.head);
      rels.push_back(t.rel);
      tails.push_back(t.tail);
      sampler_.AppendSamples(t.head, t.rel, k, &neg_tails);
      for (int64_t j = 0; j < k; ++j) {
        rep_heads.push_back(t.head);
        rep_rels.push_back(t.rel);
      }
    }
    ag::Var pos = model_->ScoreTriples(heads, rels, tails);        // [B]
    ag::Var neg = ag::Reshape(
        model_->ScoreTriples(rep_heads, rep_rels, neg_tails), {b, k});

    const float gamma = config_.margin;
    // L = -mean logsig(gamma + s_pos) - mean_i w_i logsig(-gamma - s_neg).
    ag::Var pos_term =
        ag::Neg(ag::MeanAll(ag::LogSigmoid(ag::AddScalar(pos, gamma))));
    ag::Var neg_logsig =
        ag::LogSigmoid(ag::Neg(ag::AddScalar(neg, gamma)));  // [B,K]
    ag::Var neg_term;
    if (self_adversarial) {
      ag::Var weights =
          ag::SoftmaxAlong(ag::Scale(neg, config_.adv_temperature), 1)
              .Detach();  // [B,K]
      neg_term = ag::Neg(ag::MeanAll(
          ag::SumAlong(ag::Mul(weights, neg_logsig), 1, false)));
    } else {
      neg_term = ag::Neg(ag::MeanAll(neg_logsig));
    }
    ag::Var loss = ag::Add(pos_term, neg_term);

    // Model-specific auxiliary loss (e.g. TransAE reconstruction).
    std::vector<int64_t> batch_entities = heads;
    batch_entities.insert(batch_entities.end(), tails.begin(), tails.end());
    ag::Var aux = model_->AuxiliaryLoss(batch_entities);
    if (aux.defined()) loss = ag::Add(loss, aux);

    optimizer_->ZeroGrad();
    loss.Backward();
    if (config_.grad_clip > 0.0f) {
      optim::ClipGradNorm(model_->Parameters(), config_.grad_clip);
    }
    optimizer_->Step();
    total += loss.value().data()[0];
    ++batches;
  }
  return static_cast<float>(total / std::max<int64_t>(1, batches));
}

}  // namespace came::train
