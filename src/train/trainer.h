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
  /// The 1-to-N regime splits every batch into a fixed grid of
  /// Trainer::kMicroBatches near-equal micro-batches (one for models
  /// whose score rows are not independent) and runs them concurrently on
  /// the pool; the grid never depends on the thread count.
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
class Trainer {
 public:
  /// Micro-batches per 1-to-N batch for models whose score rows are
  /// independent (KgcModel::score_rows_independent).
  static constexpr int64_t kMicroBatches = 4;

  Trainer(baselines::KgcModel* model, const kg::Dataset& dataset,
          const TrainConfig& config);

  using EpochCallback = std::function<void(const EpochStats&)>;

  /// Trains until config.epochs total epochs have run (a freshly
  /// constructed trainer runs all of them; a resumed one only the
  /// remainder); invokes `cb` after each.
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
  /// One 1-to-N micro-batch's state, reused every step.
  struct MicroBatch {
    explicit MicroBatch(const std::vector<ag::Var>& params) : slots(params) {}
    std::vector<int64_t> heads;
    std::vector<int64_t> rels;
    /// This micro-batch's parameter gradients.
    ag::GradSlots slots;
    /// Its loss, already weighted by its share of the batch rows.
    float loss = 0.0f;
  };

  float OneToNEpoch();
  /// Forward + backward of rows [first, first + rows) of the batch that
  /// starts at epoch position `start` (`batch_rows` rows in all), on a
  /// tape of its own: gradients go to mb->slots, dropout draws from
  /// `dropout_rng`.
  void RunMicroBatch(size_t start, int64_t first, int64_t rows,
                     int64_t batch_rows, Rng* dropout_rng, MicroBatch* mb);
  float NegativeSamplingEpoch(bool self_adversarial);

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
  /// The 1-to-N micro-batch grid, built on the first 1-to-N epoch.
  std::vector<MicroBatch> micro_batches_;
  NegativeSampler sampler_;
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
