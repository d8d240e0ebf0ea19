#ifndef CAME_BASELINES_KGC_MODEL_H_
#define CAME_BASELINES_KGC_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/query_plan.h"
#include "autograd/variable.h"
#include "encoders/feature_bank.h"
#include "kg/triple_store.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace came::baselines {

/// How a model is trained (mirrors each paper's original regime).
enum class TrainingRegime {
  kOneToN,           // BCE against all entities (ConvE / CamE style)
  kNegativeSampling, // margin ranking with uniform negatives (TransE style)
  kSelfAdversarial,  // RotatE-style self-adversarial weighting
};

/// Construction context shared by every model.
struct ModelContext {
  int64_t num_entities = 0;
  /// Relation count including inverse relations (2R).
  int64_t num_relations = 0;
  /// Frozen multimodal features; null for unimodal models.
  const encoders::FeatureBank* features = nullptr;
  /// Training triples (base relations only); required by graph-convolution
  /// models (CompGCN) that message-pass over the training graph.
  const std::vector<kg::Triple>* train_triples = nullptr;
  uint64_t seed = 1;
};

/// Abstract KG completion model. Scores are "higher is better" for every
/// implementation (distance models return negated distances).
class KgcModel : public nn::Module {
 public:
  ~KgcModel() override = default;

  virtual std::string Name() const = 0;
  virtual TrainingRegime regime() const = 0;

  /// True when row i of a training-mode ScoreAllTails depends only on
  /// (heads[i], rels[i]) and the parameters, so the 1-to-N trainer may
  /// split a batch into micro-batches on separate tapes. Models whose
  /// forward mixes rows or propagates over the whole graph return false
  /// and train each batch as one micro-batch.
  virtual bool score_rows_independent() const { return true; }

  /// Scores of the aligned triples (heads[i], rels[i], tails[i]): [B].
  virtual ag::Var ScoreTriples(const std::vector<int64_t>& heads,
                               const std::vector<int64_t>& rels,
                               const std::vector<int64_t>& tails) = 0;

  /// Scores of (heads[i], rels[i], t) for every entity t: [B, N].
  virtual ag::Var ScoreAllTails(const std::vector<int64_t>& heads,
                                const std::vector<int64_t>& rels) = 0;

  /// Extra loss term added by the trainer (e.g. TransAE's reconstruction
  /// loss). Undefined Var (the default) means none. Entity ids are the
  /// batch the loss should cover.
  virtual ag::Var AuxiliaryLoss(const std::vector<int64_t>& entities) {
    (void)entities;
    return ag::Var();
  }

  int64_t num_entities() const { return context_.num_entities; }
  int64_t num_relations() const { return context_.num_relations; }

  /// The model's single Rng stream (parameter init at construction,
  /// dropout masks during training). Exposed so the checkpoint subsystem
  /// can capture and restore it for bitwise-identical resume.
  Rng* mutable_rng() { return &rng_; }

 protected:
  explicit KgcModel(const ModelContext& context)
      : context_(context), rng_(context.seed) {}

  ModelContext context_;
  /// Every concrete model draws init and dropout randomness from this one
  /// stream (seeded with context.seed), keeping the full set of training
  /// Rng streams enumerable for checkpointing.
  Rng rng_;
};

/// Helper base for models whose score is an inner product
/// <Query(h, r), E[t]> (+ per-entity bias): both scoring methods derive
/// from a single `Query` implementation.
class InnerProductKgcModel : public KgcModel {
 public:
  ag::Var ScoreTriples(const std::vector<int64_t>& heads,
                       const std::vector<int64_t>& rels,
                       const std::vector<int64_t>& tails) override;
  ag::Var ScoreAllTails(const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) override;

  // --- Serving API -------------------------------------------------------
  // Raw-tensor views of the inner-product factorisation
  //   score(h, r, t) = <Query(h, r), Candidates()[t]> + bias[t]
  // used by the inference layer (FusedEmbeddingTable / ScoreServer) to
  // score panels with plain GEMM, bypassing autograd entirely. All three
  // require eval mode and run under an enforced no-tape scope.

  /// [B, d] query matrix for the batch (forward-only, no tape nodes),
  /// bitwise Query(heads, rels).value(). The first call captures the
  /// model's one query plan from one row (autograd/query_plan.h), which
  /// runs every stage of Query that reads only the head or only the
  /// relation once per entity and per relation; each call replays the
  /// rest over blocks of up to QueryPlan::kBlockRows rows, one pool chunk
  /// per block. Models whose rows are not
  /// independent (score_rows_independent()) and forwards the plan cannot
  /// replay run eagerly. Safe for concurrent callers.
  tensor::Tensor ServingQuery(const std::vector<int64_t>& heads,
                              const std::vector<int64_t>& rels);
  /// Query(heads, rels).value() run eagerly under a no-tape scope: what
  /// ServingQuery falls back to, and the bitwise oracle of its plan.
  tensor::Tensor EagerQuery(const std::vector<int64_t>& heads,
                            const std::vector<int64_t>& rels);
  /// The plan ServingQuery published (possibly a refused one), or null
  /// before its first call.
  const ag::QueryPlan* ServingPlan() const { return query_plan_.Get(); }
  /// [N, d] candidate-entity matrix (aliases the parameter buffer).
  tensor::Tensor ServingCandidates();
  /// [N] per-entity bias, or an empty tensor when the model has none.
  tensor::Tensor ServingEntityBias();

 protected:
  InnerProductKgcModel(const ModelContext& context, bool entity_bias);

  /// [B, query_dim] query vectors.
  virtual ag::Var Query(const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) = 0;
  /// [N, query_dim] candidate-entity table the query is matched against.
  virtual ag::Var CandidateTable() = 0;

  void OnSetTraining(bool training) override {
    if (training) query_plan_.Clear();
  }
  void OnParametersRestored() override { query_plan_.Clear(); }

  ag::Var bias_;  // [N] or undefined

 private:
  /// ServingQuery's one plan, captured from a single row. It reads the
  /// parameters in place but holds transposed copies of some and the
  /// hoisted per-entity and per-relation rows, so it lives only while the
  /// parameters are frozen (eval mode, no restore).
  ag::QueryPlanSlot query_plan_;
};

}  // namespace came::baselines

#endif  // CAME_BASELINES_KGC_MODEL_H_
