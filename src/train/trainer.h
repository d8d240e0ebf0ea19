#ifndef CAME_TRAIN_TRAINER_H_
#define CAME_TRAIN_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/kgc_model.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "eval/evaluator.h"
#include "kg/dataset.h"
#include "kg/filter_index.h"
#include "optim/optimizer.h"
#include "train/negative_sampler.h"

namespace came::train {

/// Hyperparameters for one training run. The regime is chosen by the
/// model (KgcModel::regime()); regime-specific fields are ignored by the
/// other regimes.
struct TrainConfig {
  int epochs = 20;
  /// Triples per optimizer step; the epoch's last batch takes the rest.
  /// Every batch runs as a fixed grid of near-equal micro-batches on the
  /// pool (Trainer::kMicroBatches for 1-to-N models with independent score
  /// rows, one otherwise); the grid never depends on the thread count.
  int64_t batch_size = 256;
  float lr = 1e-3f;
  float weight_decay = 0.0f;
  float grad_clip = 5.0f;
  uint64_t seed = 123;

  // 1-to-N regime.
  float label_smoothing = 0.1f;

  // Negative-sampling regimes.
  int negatives = 32;
  /// Margin gamma of the logsigmoid losses (0 for bilinear models).
  float margin = 6.0f;
  /// Self-adversarial temperature alpha.
  float adv_temperature = 1.0f;

  /// When non-empty, the trainer writes a full checkpoint here every
  /// `checkpoint_every` epochs (atomically — a crash leaves the previous
  /// checkpoint intact). A failed save is logged and training continues.
  std::string checkpoint_path;
  int checkpoint_every = 1;
};

struct EpochStats {
  int epoch = 0;
  float loss = 0.0f;
  /// Wall-clock seconds since training started.
  double seconds_elapsed = 0.0;
};

/// Drives one model through its training regime on a dataset. Training
/// triples are augmented with inverses; the 1-to-N labels and the
/// filtered negative sampler use an index over the training split only.
///
/// Every regime runs the same optimizer step: the batch (and, when the
/// regime samples them, its negatives) is drawn on the calling thread,
/// each micro-batch of the grid builds its regime's loss on a tape of its
/// own, and the micro-batch gradients are summed in grid order before one
/// clip and one Adam step. The regimes differ only in that loss.
class Trainer {
 public:
  /// Micro-batches per batch for 1-to-N models whose score rows are
  /// independent (KgcModel::score_rows_independent); every other model
  /// trains each batch as one micro-batch.
  static constexpr int64_t kMicroBatches = 4;

  Trainer(baselines::KgcModel* model, const kg::Dataset& dataset,
          const TrainConfig& config);

  using EpochCallback = std::function<void(const EpochStats&)>;

  /// Trains until config.epochs total epochs have run (a freshly
  /// constructed trainer runs all of them; a resumed one only the
  /// remainder); invokes `cb` after each, then writes the periodic
  /// checkpoint if one is due. The one epoch loop: the other training
  /// entry points run it with their per-epoch work inside `cb`.
  void Train(const EpochCallback& cb = nullptr);

  /// Runs a single epoch and returns its mean batch loss.
  float RunEpoch();

  /// The paper's model-selection protocol (Section V-B): trains
  /// config.epochs epochs, evaluates validation MRR every `eval_every`
  /// epochs (on up to `valid_sample` triples; -1 = all), keeps the
  /// best-MRR parameter snapshot (Hits@10 breaks exact ties) and
  /// restores it when training ends. Returns the best validation
  /// metrics.
  eval::Metrics TrainWithBestValidation(const eval::Evaluator& evaluator,
                                        int eval_every = 5,
                                        int64_t valid_sample = -1,
                                        const EpochCallback& cb = nullptr);

  /// Serialises the complete training state — model parameters, Adam
  /// moments + step, all three Rng streams, epoch counter and the
  /// best-validation state — atomically under `path`. A crash at any
  /// point leaves either the previous checkpoint or the new one, never a
  /// torn file.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores state saved by SaveCheckpoint into this trainer and its
  /// model. Everything is validated (parameter names/shapes, optimizer
  /// shapes, stream count, section checksums) before any mutation, so a
  /// failed Resume leaves the trainer untouched. After a successful
  /// Resume, continuing with Train()/TrainWithBestValidation() is
  /// bitwise-identical to a run that never stopped.
  Status Resume(const std::string& path);

  double elapsed_seconds() const { return stopwatch_.ElapsedSeconds(); }
  int epochs_run() const { return epochs_run_; }

 private:
  /// One micro-batch's state, reused every step.
  struct MicroBatch {
    explicit MicroBatch(const std::vector<ag::Var>& params) : slots(params) {}
    std::vector<int64_t> heads;
    std::vector<int64_t> rels;
    std::vector<int64_t> tails;
    /// Negative-sampling regimes: each row's (head, rel) repeated once per
    /// negative, and the negative tails, row-major [rows, negatives].
    std::vector<int64_t> rep_heads;
    std::vector<int64_t> rep_rels;
    std::vector<int64_t> neg_tails;
    /// This micro-batch's parameter gradients.
    ag::GradSlots slots;
    /// Its loss, already weighted by its share of the batch rows.
    float loss = 0.0f;
  };

  /// Forward + backward of rows [first, first + rows) of the batch that
  /// starts at epoch position `start` (`batch_rows` rows in all), on a
  /// tape of its own: gradients go to mb->slots, dropout draws from
  /// `dropout_rng`.
  void RunMicroBatch(size_t start, int64_t first, int64_t rows,
                     int64_t batch_rows, Rng* dropout_rng, MicroBatch* mb);
  // The regime losses: each is the mean over the micro-batch rows held in
  // mb->heads, rels and tails, before RunMicroBatch weights it.

  /// BCE of every tail's score against the smoothed 1-to-N label rows.
  ag::Var OneToNLoss(MicroBatch* mb);
  /// The logsigmoid margin loss against the negatives drawn for batch rows
  /// [first, first + rows), self-adversarially weighted in the
  /// kSelfAdversarial regime, plus the model's AuxiliaryLoss.
  ag::Var NegativeSamplingLoss(int64_t first, MicroBatch* mb);

  /// Writes the periodic checkpoint configured by
  /// TrainConfig::checkpoint_path, if due this epoch.
  void MaybeCheckpoint() const;

  /// The triple visited at position `i` of the current epoch.
  const kg::Triple& EpochTriple(size_t i) const {
    return train_[order_[i]];
  }

  baselines::KgcModel* model_;
  const kg::Dataset& dataset_;
  TrainConfig config_;
  /// Training triples with inverses, in pristine generation order. Epoch
  /// ordering lives in `order_`: each epoch shuffles a fresh identity
  /// permutation, so the visit order is a pure function of the Rng state
  /// at epoch start — the property that makes checkpoint/resume
  /// bitwise-identical to an uninterrupted run.
  std::vector<kg::Triple> train_;
  std::vector<size_t> order_;
  kg::FilterIndex train_filter_;
  std::unique_ptr<optim::Adam> optimizer_;
  /// The micro-batch grid of every step.
  std::vector<MicroBatch> micro_batches_;
  NegativeSampler sampler_;
  /// The current batch's negative tails, row-major [batch rows, negatives],
  /// drawn on the calling thread in batch order before the grid runs.
  std::vector<int64_t> negatives_;
  Rng rng_;
  Stopwatch stopwatch_;
  int epochs_run_ = 0;
  /// Best-validation state for TrainWithBestValidation, held as members
  /// (rather than locals) so checkpoints capture model selection too.
  eval::Metrics best_;
  std::vector<tensor::Tensor> best_snapshot_;
};

}  // namespace came::train

#endif  // CAME_TRAIN_TRAINER_H_
