#ifndef CAME_INFER_SCORE_SERVER_H_
#define CAME_INFER_SCORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/runtime_config.h"
#include "common/status.h"
#include "infer/candidate_panels.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_dtype.h"
#include "kg/filter_index.h"
#include "tensor/shard_store.h"
#include "tensor/tensor.h"

namespace came::baselines {
class InnerProductKgcModel;
}  // namespace came::baselines

namespace came::infer {

/// Encodes a batch of (head, relation) queries into a [B, d] query matrix.
/// Must be forward-only (no tape nodes) and eval-mode. With concurrent
/// server calls the encoder is invoked from multiple threads at once, so
/// it must be safe for concurrent invocation. The model-backed encoder
/// qualifies: ServingQuery replays the model's one query plan (for CamE:
/// RIC's pair-dependent co-attention calls and head projections and the
/// conv decoder, reading the hoisted per-entity and per-relation rows)
/// once per row, reading only the model, and captures it under a mutex.
using QueryEncoder = std::function<tensor::Tensor(
    const std::vector<int64_t>& heads, const std::vector<int64_t>& rels)>;

/// Default for ScoreServerConfig::prune: RuntimeConfig::score_prune
/// (CAME_SCORE_PRUNE=on|off, default on).
inline bool ScorePruneFromEnv() { return GetRuntimeConfig().score_prune; }

struct ScoreServerConfig {
  /// Entity-panel width for the blocked score sweep. Scratch memory per
  /// batch is batch_size * panel_width floats (RankBatch: that much per
  /// pool thread, as its panels run in parallel) — the full N-entity
  /// score vector is never materialised. Non-positive values are clamped to
  /// 1024 with a warning (a misconfigured width should degrade, not
  /// crash the server).
  int64_t panel_width = 1024;
  /// Candidate-matrix precision for fused-table servers. A non-fp32
  /// value makes the server quantize the table at construction
  /// (ShardStore::Quantize into RAM) and score through the matching qgemm
  /// path. Ignored by the ShardStorePanelSource constructor, where the
  /// store's own dtype governs (e.g. a quantized ShardStore).
  ScoreDtype dtype = ScoreDtype::kFp32;
  /// Exact panel-skip pruning: panels whose cached score upper bound
  /// (Cauchy–Schwarz: ||q|| * max_row_norm + max_bias) provably cannot
  /// beat a query's current K-th best are skipped, and panels are visited
  /// best-bound-first so the heaps fill with strong candidates early.
  /// Results are bitwise identical to the unpruned sweep (the bound is
  /// conservative and the serving order eval::ScoredBefore is a strict
  /// total order, so the top-K set is sweep-order independent). Defaults
  /// to CAME_SCORE_PRUNE (on when unset).
  bool prune = ScorePruneFromEnv();
  /// Relation-id bound for request validation; rel ids outside
  /// [0, num_relations) are rejected with InvalidArgument. <= 0 disables
  /// the check (sources carry no relation count; the model-backed
  /// constructor fills it in from the model).
  int64_t num_relations = -1;
};

/// Top-K answer for one (h, r, ?) query, best-first under the serving
/// order (eval::ScoredBefore: score desc, NaN worst, id asc on ties).
struct TopKResult {
  std::vector<int64_t> ids;
  std::vector<float> scores;
};

/// Per-query candidate filtering.
struct TopKOptions {
  /// When set, candidates in filter->Tails(head, rel) are skipped
  /// (filtered protocol), except `keep`.
  const kg::FilterIndex* filter = nullptr;
  /// Entity id exempt from filtering (the evaluation target), -1 = none.
  int64_t keep = -1;
  /// Extra candidate ids to skip (sorted ascending); not owned.
  const std::vector<int64_t>* exclude = nullptr;
  /// When set, only these candidate ids are eligible (sorted ascending,
  /// not owned) — type-aware shortlists like "rank diseases only". Unlike
  /// filter/exclude, `keep` does not override this restriction.
  const std::vector<int64_t>* restrict_to = nullptr;
};

/// Answers (h, r, ?) top-K queries against a ShardStorePanelSource: a
/// tensor::ShardStore of candidate rows (in RAM for fused-table servers,
/// or mmap-backed slabs paging under a residency budget for beyond-RAM
/// serving) plus an optional per-entity bias. The sweep clamps every
/// panel to the source's PanelEnd, so shard boundaries are respected
/// without the scoring loop knowing about shards.
///
/// Each batch runs one panel GEMM per entity panel
/// (q [B, d] x panel [P, d]^T), and the panel scores feed per-query
/// bounded heaps of size K directly — the full [B, N] score matrix never
/// exists. Top-K results match a brute-force sort of the serving score
/// vector exactly, ties included. tensor::gemm::Gemm computes every
/// element in one order per kernel whatever the shape, so a query's
/// scores do not depend on the panel width or on the batch it rides in.
///
/// Pruning (config.prune): the source's per-block bound metadata
/// (tensor::PanelBoundTable) gives each panel a conservative score upper
/// bound per query. Panels are visited in descending bound order; once a
/// query's heap holds K entries whose worst member the panel's bound
/// cannot beat under eval::ScoredBefore, the panel is skipped for that
/// query — and when every query in the batch skips it, the GEMM (and,
/// shard-backed, the mmap fault) is skipped entirely. Because the bound
/// over-approximates every candidate's score and ScoredBefore is a
/// strict total order (making the top-K set unique and sweep-order
/// independent), pruned results are bitwise identical to the unpruned
/// sweep; tools/check_serving_parity.py gates on that.
///
/// Thread-safe for concurrent readers: sweeps take no global lock. Each
/// sweep holds a pin lease on a panel's shard while scoring it, so a
/// concurrent sweep's eviction cannot pull the mapping out from under the
/// GEMM; per-query scratch comes from the thread-safe tensor::pool; stats
/// are relaxed atomics.
class ScoreServer {
 public:
  /// Serves `model` (used for query encoding only; entity-side state
  /// comes from `table`, which is copied into the server's own store at
  /// construction). The model must outlive the server and stay in eval
  /// mode. Fills config.num_relations from the model when unset.
  ScoreServer(baselines::InnerProductKgcModel* model,
              const FusedEmbeddingTable* table,
              const ScoreServerConfig& config = {});
  /// Custom query encoder (tests, remote encoders).
  ScoreServer(QueryEncoder encoder, const FusedEmbeddingTable* table,
              const ScoreServerConfig& config = {});
  /// Serves candidates straight from `source` (e.g. over a sealed
  /// beyond-RAM store). Not owned; must outlive the server.
  ScoreServer(QueryEncoder encoder, ShardStorePanelSource* source,
              const ScoreServerConfig& config = {});

  /// Top-K for a single query. K is clamped to the number of eligible
  /// candidates (K > N returns them all, ranked). InvalidArgument on
  /// k <= 0 or out-of-range head/rel ids (malformed requests are a
  /// server-boundary error, not a process-fatal one).
  Result<TopKResult> TopK(int64_t head, int64_t rel, int64_t k,
                          const TopKOptions& opts = {});

  /// Top-K for an aligned batch of queries (one GEMM per panel for the
  /// whole batch). An empty batch returns an empty vector.
  Result<std::vector<TopKResult>> TopKBatch(const std::vector<int64_t>& heads,
                                            const std::vector<int64_t>& rels,
                                            int64_t k,
                                            const TopKOptions& opts = {});

  /// Filtered rank of `target` for (head, rel, ?): RankBatch over one
  /// query, filtered by opts.filter (the other options are ignored).
  Result<double> RankOf(int64_t head, int64_t rel, int64_t target,
                        const TopKOptions& opts = {});

  /// Filtered ranks of targets[i] for (heads[i], rels[i], ?), identical
  /// to the Evaluator's protocol (1 + #better + #equal/2, NaN target
  /// worst), computed over panels without materialising the score vector.
  /// Each target's score comes from scoring its own row once against its
  /// own query, which equals its score in the sweep bit for bit, so every
  /// rank agrees with eval::FilteredRank over the sweep's scores. Panels
  /// are scored in parallel on the pool, one GEMM per panel for the whole
  /// batch, each pool chunk under its own pin and score lease. This is
  /// deterministic: a query's skips depend only on its target score and
  /// the panel bounds (never on earlier panels), and the per-panel
  /// better/equal counts are integers, so ranks and stats are the same at
  /// every thread count.
  /// Filtering uses filter->Tails(head, rel) when `filter` is set; the
  /// target is always kept. Pruning lets a query sit out a panel whose
  /// bound is strictly below its target's score (such a panel adds
  /// neither "better" nor "equal" counts), so ranks are bitwise those of
  /// the unpruned sweep; the GEMM is skipped when every query sits out.
  /// InvalidArgument, naming the query, on mismatched sizes or an
  /// out-of-range head, relation or target. An empty batch returns an
  /// empty vector.
  Result<std::vector<double>> RankBatch(const std::vector<int64_t>& heads,
                                        const std::vector<int64_t>& rels,
                                        const std::vector<int64_t>& targets,
                                        const kg::FilterIndex* filter);

  int64_t num_entities() const { return source_->num_entities(); }
  /// The precision the sweep actually scores in (the store's dtype — for
  /// fused-table servers this is config.dtype).
  ScoreDtype score_dtype() const { return source_->dtype(); }

  struct Stats {
    int64_t queries_served = 0;
    int64_t batches_executed = 0;
    /// Panels whose GEMM actually ran (counted once per batch, however
    /// many queries consumed it).
    int64_t panels_scored = 0;
    /// Panels skipped outright — every query in the batch pruned them,
    /// so neither the GEMM nor the panel fetch (mmap fault) happened.
    int64_t panels_skipped = 0;
    /// Per-(query, panel) prune decisions, including queries that sat
    /// out a panel other queries still scored.
    int64_t bound_rejects = 0;
  };
  Stats GetStats() const;

 private:
  /// Relaxed-atomic mirror of Stats: sweeps from concurrent threads
  /// bump counters without synchronisation; GetStats snapshots.
  struct AtomicStats {
    std::atomic<int64_t> queries_served{0};
    std::atomic<int64_t> batches_executed{0};
    std::atomic<int64_t> panels_scored{0};
    std::atomic<int64_t> panels_skipped{0};
    std::atomic<int64_t> bound_rejects{0};
  };

  /// Encodes and validates the query matrix ([B, d]). Shape violations
  /// here are encoder-contract bugs and CHECK-fail.
  tensor::Tensor EncodeQueries(const std::vector<int64_t>& heads,
                               const std::vector<int64_t>& rels);
  /// Request validation shared by TopKBatch/RankBatch: size and id-range
  /// errors are InvalidArgument, not a crash.
  Status ValidateIds(const std::vector<int64_t>& heads,
                     const std::vector<int64_t>& rels,
                     const std::vector<int64_t>* targets = nullptr) const;
  void RecordSweep(int64_t queries, int64_t panels_scored,
                   int64_t panels_skipped, int64_t bound_rejects);

  QueryEncoder encoder_;
  /// Fused-table servers: the candidate matrix, copied (and quantized when
  /// config.dtype asks) into an in-RAM store, plus the source over it.
  tensor::ShardStore owned_store_;
  std::unique_ptr<ShardStorePanelSource> owned_source_;
  ShardStorePanelSource* source_ = nullptr;
  ScoreServerConfig config_;
  AtomicStats stats_;
};

}  // namespace came::infer

#endif  // CAME_INFER_SCORE_SERVER_H_
