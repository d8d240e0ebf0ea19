#include "infer/score_server.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/kgc_model.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/parallel_for.h"
#include "eval/ranking.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/storage_pool.h"

namespace came::infer {

namespace {

struct Entry {
  float score;
  int64_t id;
};

// Heap comparator: "better-ranked first" is the heap's less-than, so the
// heap front (the comparator-maximum) is the worst kept entry — the one a
// better candidate evicts.
bool BetterEntry(const Entry& a, const Entry& b) {
  return eval::ScoredBefore(a.score, a.id, b.score, b.id);
}

// Skip-set cursor over a sorted id list (known tails / explicit excludes).
// A default-constructed cursor is inactive (matches nothing); an engaged
// cursor walks the span. The span's storage must outlive the cursor.
class SkipCursor {
 public:
  SkipCursor() = default;
  explicit SkipCursor(std::span<const int64_t> ids)
      : active_(true), ids_(ids), it_(ids_.begin()) {}

  bool active() const { return active_; }

  void Seek(int64_t first_id) {
    if (!active_) return;
    it_ = std::lower_bound(ids_.begin(), ids_.end(), first_id);
  }

  bool Skip(int64_t id) {
    if (!active_) return false;
    while (it_ != ids_.end() && *it_ < id) ++it_;
    return it_ != ids_.end() && *it_ == id;
  }

 private:
  bool active_ = false;
  std::span<const int64_t> ids_;
  std::span<const int64_t>::iterator it_{};
};

SkipCursor CursorOver(const std::vector<int64_t>* ids) {
  return ids == nullptr ? SkipCursor() : SkipCursor(std::span(*ids));
}

// Feeds one panel of scores (bias already added) into the query's
// bounded heap.
void UpdateHeap(std::vector<Entry>* heap, int64_t k, const float* scores,
                int64_t begin, int64_t len,
                SkipCursor filter_cursor, int64_t keep,
                SkipCursor exclude_cursor, SkipCursor restrict_cursor) {
  filter_cursor.Seek(begin);
  exclude_cursor.Seek(begin);
  restrict_cursor.Seek(begin);
  for (int64_t j = 0; j < len; ++j) {
    const int64_t id = begin + j;
    if (restrict_cursor.active() && !restrict_cursor.Skip(id)) continue;
    const bool in_filter = filter_cursor.Skip(id);
    const bool in_exclude = exclude_cursor.Skip(id);
    if ((in_filter || in_exclude) && id != keep) continue;
    const float s = scores[j];
    if (static_cast<int64_t>(heap->size()) < k) {
      heap->push_back({s, id});
      std::push_heap(heap->begin(), heap->end(), BetterEntry);
    } else if (BetterEntry({s, id}, heap->front())) {
      std::pop_heap(heap->begin(), heap->end(), BetterEntry);
      heap->back() = {s, id};
      std::push_heap(heap->begin(), heap->end(), BetterEntry);
    }
  }
}

// Relative safety margin folded into every panel score bound. The sweep's
// fp32 GEMM accumulates with relative error <= dim * 2^-24 against the
// real-valued inner product (|sum q_j*c_j| <= ||q||*||c|| termwise via
// Cauchy–Schwarz, so the error is bounded relative to the bound itself);
// the int8 combine adds a few more ulps. 1e-3 dominates both up to
// dim ~10^4 while costing a negligible amount of pruning slack.
constexpr double kBoundSlack = 1e-3;

// Conservative fp32 upper bound on every serving score in a panel for a
// query of L2 norm `qnorm`: ||q|| * max_row_norm + max_bias, inflated by
// kBoundSlack and rounded *up* to float so the float comparisons against
// heap entries / target scores stay sound. NaN (only reachable via
// 0 * inf, e.g. a zero-norm query against a no-metadata +inf max_norm)
// widens to +inf: "no usable bound, never prune".
float PanelScoreBound(double qnorm, float max_norm, float max_bias) {
  const double qn_mn = qnorm * static_cast<double>(max_norm);
  const double mb = static_cast<double>(max_bias);
  const double bound =
      qn_mn + mb + (std::abs(qn_mn) + std::abs(mb)) * kBoundSlack;
  if (std::isnan(bound)) return std::numeric_limits<float>::infinity();
  float f = static_cast<float>(bound);
  if (static_cast<double>(f) < bound)
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  return f;
}

// L2 norm of the int8 path's *effective* query row: the two-digit
// dequantized vector v_j = hi_j*hi_scale + lo_j*lo_scale the GEMM scores
// with. Computed in double (error is ~ulps, far inside kBoundSlack); NaN
// scales (non-finite query rows) propagate to +inf, which disables
// pruning for that query.
double TwoDigitQueryNorm(const int8_t* hi, float hi_scale, const int8_t* lo,
                         float lo_scale, int64_t d) {
  double sum = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    const double v = static_cast<double>(hi[j]) * hi_scale +
                     static_cast<double>(lo[j]) * lo_scale;
    sum += v * v;
  }
  const double norm = std::sqrt(sum);
  return std::isnan(norm) ? std::numeric_limits<double>::infinity() : norm;
}

// One panel of the sweep plus its cached bound metadata. `key` is the
// batch-level ordering bound (max query norm * max_norm + max_bias),
// NaN-sanitised to +inf so the sort stays a strict weak ordering.
struct PanelSeg {
  int64_t begin = 0;
  int64_t end = 0;
  float max_norm = 0.0f;
  float max_bias = 0.0f;
  double key = 0.0;
};

// Query-side state for one sweep, shared by TopKBatch and RankBatch. int8
// sweeps encode the queries once as a two-digit (hi + residual) pair, so
// the query contributes ~127x less error than the int8 candidate rows (a
// non-finite query degrades to NaN scales -> NaN scores -> ranked worst).
// With pruning on, each query's L2 norm — of the row the GEMM actually
// scores with: the fp32 row, or the dequantized two-digit vector — feeds
// the per-panel Cauchy–Schwarz bound.
struct QueryBlock {
  tensor::Tensor q;  // [b, d] fp32 rows
  int64_t b = 0;
  int64_t d = 0;
  std::vector<int8_t> hi;
  std::vector<float> hi_scales;
  std::vector<int8_t> lo;
  std::vector<float> lo_scales;
  std::vector<double> norms;  // [b], pruning only
  double max_norm = 0.0;
};

QueryBlock PrepareQueries(tensor::Tensor q, ScoreDtype dtype, bool prune) {
  QueryBlock qb;
  qb.b = q.dim(0);
  qb.d = q.dim(1);
  qb.q = std::move(q);
  const size_t b = static_cast<size_t>(qb.b);
  const int64_t d = qb.d;
  if (dtype == ScoreDtype::kInt8) {
    qb.hi.resize(b * static_cast<size_t>(d));
    qb.hi_scales.resize(b);
    qb.lo.resize(b * static_cast<size_t>(d));
    qb.lo_scales.resize(b);
    tensor::qgemm::QuantizeRowsInt8ServingTwoDigit(
        qb.q.data(), qb.b, d, qb.hi.data(), qb.hi_scales.data(),
        qb.lo.data(), qb.lo_scales.data());
  }
  if (!prune) return qb;
  qb.norms.resize(b);
  for (size_t i = 0; i < b; ++i) {
    const int64_t off = static_cast<int64_t>(i) * d;
    const double qn =
        dtype == ScoreDtype::kInt8
            ? TwoDigitQueryNorm(qb.hi.data() + off, qb.hi_scales[i],
                                qb.lo.data() + off, qb.lo_scales[i], d)
            : static_cast<double>(tensor::qgemm::RowNormUpperBoundFp32(
                  qb.q.data() + off, d));
    qb.norms[i] = qn;
    qb.max_norm = std::max(qb.max_norm, qn);
  }
  return qb;
}

// The panel schedule: [0, n) cut every `width` rows and at every shard
// boundary, in ascending row order. With pruning on, each panel carries
// its bound metadata and its batch-level bound `key`.
std::vector<PanelSeg> PanelSchedule(const ShardStorePanelSource& src,
                                    int64_t width, bool prune,
                                    double qnorm_max) {
  const int64_t n = src.num_entities();
  std::vector<PanelSeg> segs;
  segs.reserve(static_cast<size_t>((n + width - 1) / width));
  for (int64_t p0 = 0; p0 < n;) {
    PanelSeg seg;
    seg.begin = p0;
    seg.end = std::min(src.PanelEnd(p0), p0 + width);
    if (prune) {
      seg.max_norm = src.PanelMaxNorm(seg.begin, seg.end);
      seg.max_bias = src.PanelMaxBias(seg.begin, seg.end);
      const double key = qnorm_max * static_cast<double>(seg.max_norm) +
                         static_cast<double>(seg.max_bias);
      seg.key =
          std::isnan(key) ? std::numeric_limits<double>::infinity() : key;
    }
    segs.push_back(seg);
    p0 = seg.end;
  }
  return segs;
}

// RAII pin lease on the shard behind rows [begin, end).
class PanelPin {
 public:
  PanelPin(tensor::ShardStore* store, int64_t begin, int64_t end)
      : store_(store), shard_(store->PinPanel(begin, end)) {}
  ~PanelPin() { store_->UnpinPanel(shard_); }
  PanelPin(const PanelPin&) = delete;
  PanelPin& operator=(const PanelPin&) = delete;

 private:
  tensor::ShardStore* store_;
  int64_t shard_;
};

// Scores candidates [begin, end) against queries [q0, q1) of `qb` into
// `scores` ([q1 - q0, end - begin], row-major), bias included. The panel's
// shard stays pinned while the GEMM reads it, so a concurrent sweep's
// eviction cannot unmap it mid-use; the scores hold no store pointers.
// fp32 and bf16 (decoded to fp32) run tensor::gemm::Gemm; int8 runs the
// exact-integer two-digit GEMM, so its panel width never matters.
void ScorePanel(ShardStorePanelSource* src, const QueryBlock& qb,
                int64_t q0, int64_t q1, int64_t begin, int64_t end,
                float* scores) {
  tensor::ShardStore* store = src->store();
  const int64_t pw = end - begin;
  const int64_t m = q1 - q0;
  const int64_t off = q0 * qb.d;
  {
    PanelPin pin(store, begin, end);
    switch (src->dtype()) {
      case ScoreDtype::kFp32:
        tensor::gemm::Gemm(qb.q.data() + off, store->PanelRows(begin, end),
                           scores, m, qb.d, pw, /*trans_a=*/false,
                           /*trans_b=*/true, /*accumulate=*/false);
        break;
      case ScoreDtype::kInt8:
        tensor::qgemm::GemmInt8TwoDigit(
            qb.hi.data() + off, qb.hi_scales.data() + q0, qb.lo.data() + off,
            qb.lo_scales.data() + q0, store->QuantPanelRows(begin, end),
            store->PanelScales(begin, end), scores, m, qb.d, pw);
        break;
      case ScoreDtype::kBf16: {
        tensor::pool::ScratchLease decode(pw * qb.d);
        tensor::qgemm::DecodeBf16(store->Bf16PanelRows(begin, end),
                                  pw * qb.d, decode.data());
        tensor::gemm::Gemm(qb.q.data() + off, decode.data(), scores, m, qb.d,
                           pw, /*trans_a=*/false, /*trans_b=*/true,
                           /*accumulate=*/false);
        break;
      }
    }
  }
  if (!src->has_bias()) return;
  const float* bias = src->BiasFrom(begin);
  for (int64_t i = 0; i < m; ++i) {
    float* row = scores + i * pw;
    for (int64_t j = 0; j < pw; ++j) row[j] += bias[j];
  }
}

// One panel of the sweep, the body TopKBatch and RankBatch share. With
// pruning on, `sits_out(i, seg)` decides per query whether query i may
// skip the panel (mask in `skip`, [b]); when every query does, the panel
// is skipped outright (no pin, no GEMM, and for a shard-backed source no
// residency fault). Otherwise it is scored once for the whole batch into
// `scores` ([b, panel width]) and `consume(i, row, seg)` takes each
// remaining query's row of panel scores, on the pool — or inline when the
// caller already runs inside a pool chunk. Returns how many queries sat
// out.
template <typename SitsOut, typename Consume>
int64_t SweepPanel(ShardStorePanelSource* src, const QueryBlock& qb,
                   const PanelSeg& seg, bool prune, const SitsOut& sits_out,
                   const Consume& consume, uint8_t* skip, float* scores) {
  int64_t nskip = 0;
  for (int64_t i = 0; i < qb.b; ++i) {
    skip[i] = prune && sits_out(i, seg) ? 1 : 0;
    nskip += skip[i];
  }
  if (nskip == qb.b) return nskip;
  ScorePanel(src, qb, 0, qb.b, seg.begin, seg.end, scores);
  const int64_t pw = seg.end - seg.begin;
  ParallelFor(0, qb.b, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (skip[i] == 0) consume(i, scores + i * pw, seg);
    }
  });
  return nskip;
}

struct SweepCounts {
  int64_t panels_scored = 0;
  int64_t bound_rejects = 0;

  void Add(int64_t nskip, int64_t b) {
    panels_scored += nskip < b ? 1 : 0;
    bound_rejects += nskip;
  }
};

// The fused table's candidate matrix as an in-RAM store in `dtype`:
// copied into a one-shard ShardStore, then re-encoded by
// ShardStore::Quantize when `dtype` is not fp32 (rows holding NaN/Inf
// cannot be quantized and CHECK-fail here).
tensor::ShardStore CandidateStore(const FusedEmbeddingTable& table,
                                  ScoreDtype dtype) {
  CAME_CHECK_GT(table.num_entities(), 0) << "empty fused table";
  Result<tensor::ShardStore> made =
      tensor::ShardStore::InRam(table.num_entities(), table.dim());
  CAME_CHECK(made.ok()) << made.status().ToString();
  tensor::ShardStore fp32 = std::move(made).value();
  // InRam is one contiguous shard, so row 0 addresses the whole matrix.
  std::memcpy(fp32.MutableRow(0), table.candidates().data(),
              static_cast<size_t>(table.candidates().numel()) * sizeof(float));
  if (dtype == ScoreDtype::kFp32) {
    const Status sealed = fp32.Seal();  // in RAM: computes the bounds
    CAME_CHECK(sealed.ok()) << sealed.ToString();
    return fp32;
  }
  Result<tensor::ShardStore> quantized =
      tensor::ShardStore::Quantize(&fp32, /*dir=*/"", dtype);
  CAME_CHECK(quantized.ok()) << quantized.status().ToString();
  return std::move(quantized).value();
}

int64_t ClampPanelWidth(int64_t width) {
  if (width > 0) return width;
  CAME_LOG(Warning) << "ScoreServerConfig::panel_width " << width
                    << " is not positive; using 1024";
  return 1024;
}

}  // namespace

ScoreServer::ScoreServer(baselines::InnerProductKgcModel* model,
                         const FusedEmbeddingTable* table,
                         const ScoreServerConfig& config)
    : ScoreServer(
          [model](const std::vector<int64_t>& heads,
                  const std::vector<int64_t>& rels) {
            return model->ServingQuery(heads, rels);
          },
          table, config) {
  CAME_CHECK(model != nullptr);
  if (config_.num_relations <= 0)
    config_.num_relations = model->num_relations();
}

ScoreServer::ScoreServer(QueryEncoder encoder,
                         const FusedEmbeddingTable* table,
                         const ScoreServerConfig& config)
    : encoder_(std::move(encoder)), config_(config) {
  CAME_CHECK(encoder_ != nullptr);
  CAME_CHECK(table != nullptr);
  owned_store_ = CandidateStore(*table, config_.dtype);
  owned_source_ =
      std::make_unique<ShardStorePanelSource>(&owned_store_, table->bias());
  source_ = owned_source_.get();
  config_.panel_width = ClampPanelWidth(config_.panel_width);
}

ScoreServer::ScoreServer(QueryEncoder encoder, ShardStorePanelSource* source,
                         const ScoreServerConfig& config)
    : encoder_(std::move(encoder)), source_(source), config_(config) {
  CAME_CHECK(encoder_ != nullptr);
  CAME_CHECK(source_ != nullptr);
  CAME_CHECK_GT(source_->num_entities(), 0) << "empty candidate source";
  config_.panel_width = ClampPanelWidth(config_.panel_width);
}

tensor::Tensor ScoreServer::EncodeQueries(const std::vector<int64_t>& heads,
                                          const std::vector<int64_t>& rels) {
  CAME_CHECK_EQ(heads.size(), rels.size());
  CAME_CHECK(!heads.empty());
  tensor::Tensor q = encoder_(heads, rels);
  CAME_CHECK_EQ(q.ndim(), 2);
  CAME_CHECK_EQ(q.dim(0), static_cast<int64_t>(heads.size()));
  CAME_CHECK_EQ(q.dim(1), source_->dim()) << "query/table dim mismatch";
  return q;
}

Status ScoreServer::ValidateIds(const std::vector<int64_t>& heads,
                                const std::vector<int64_t>& rels,
                                const std::vector<int64_t>* targets) const {
  if (heads.size() != rels.size() ||
      (targets != nullptr && targets->size() != heads.size())) {
    return Status::InvalidArgument(
        "batch size mismatch: " + std::to_string(heads.size()) + " heads, " +
        std::to_string(rels.size()) + " relations" +
        (targets != nullptr ? ", " + std::to_string(targets->size()) +
                                  " targets"
                            : std::string()));
  }
  const int64_t n = source_->num_entities();
  const int64_t nr = config_.num_relations;
  for (size_t i = 0; i < heads.size(); ++i) {
    std::string why;
    if (heads[i] < 0 || heads[i] >= n) {
      why = "head id " + std::to_string(heads[i]) + " outside [0, " +
            std::to_string(n) + ")";
    } else if (nr > 0 && (rels[i] < 0 || rels[i] >= nr)) {
      why = "relation id " + std::to_string(rels[i]) + " outside [0, " +
            std::to_string(nr) + ")";
    } else if (targets != nullptr &&
               ((*targets)[i] < 0 || (*targets)[i] >= n)) {
      why = "target id " + std::to_string((*targets)[i]) + " outside [0, " +
            std::to_string(n) + ")";
    } else {
      continue;
    }
    std::string query = "query " + std::to_string(i) + " (" +
                        std::to_string(heads[i]) + ", " +
                        std::to_string(rels[i]);
    if (targets != nullptr) query += ", " + std::to_string((*targets)[i]);
    return Status::InvalidArgument(query + "): " + why);
  }
  return Status::OK();
}

Result<TopKResult> ScoreServer::TopK(int64_t head, int64_t rel, int64_t k,
                                     const TopKOptions& opts) {
  Result<std::vector<TopKResult>> batch = TopKBatch({head}, {rel}, k, opts);
  if (!batch.ok()) return batch.status();
  return std::move(batch.value()[0]);
}

Result<std::vector<TopKResult>> ScoreServer::TopKBatch(
    const std::vector<int64_t>& heads, const std::vector<int64_t>& rels,
    int64_t k, const TopKOptions& opts) {
  if (k <= 0)
    return Status::InvalidArgument("top-k requires k > 0, got " +
                                   std::to_string(k));
  CAME_RETURN_IF_ERROR(ValidateIds(heads, rels));
  if (heads.empty()) return std::vector<TopKResult>();

  const bool prune = config_.prune;
  const QueryBlock qb =
      PrepareQueries(EncodeQueries(heads, rels), source_->dtype(), prune);
  const int64_t b = qb.b;
  const int64_t n = source_->num_entities();

  std::vector<std::vector<Entry>> heaps(static_cast<size_t>(b));
  for (auto& h : heaps) h.reserve(static_cast<size_t>(std::min(k, n)));

  std::vector<PanelSeg> segs =
      PanelSchedule(*source_, config_.panel_width, prune, qb.max_norm);
  // With pruning on, panels are visited in descending batch-bound order:
  // the best candidates fill the heaps first, so later weak panels prune.
  // The tie-break on `begin` keeps the order deterministic. Safe to
  // reorder because eval::ScoredBefore is a strict total order, so the
  // top-K *set* (and its sorted output) is sweep-order independent.
  if (prune) {
    std::sort(segs.begin(), segs.end(),
              [](const PanelSeg& a, const PanelSeg& b) {
                if (a.key != b.key) return a.key > b.key;
                return a.begin < b.begin;
              });
  }
  // A query sits out a panel once its heap holds k entries whose worst
  // member the panel's score bound cannot beat. The bound
  // over-approximates every panel score and seg.begin lower-bounds every
  // panel id, so (bound, begin) ranks at least as well as any (score, id)
  // the panel could produce under ScoredBefore — if even that loses to
  // the heap front, every real candidate does too.
  const auto sits_out = [&](int64_t i, const PanelSeg& seg) {
    const std::vector<Entry>& h = heaps[static_cast<size_t>(i)];
    if (static_cast<int64_t>(h.size()) < k) return false;
    const float bound = PanelScoreBound(qb.norms[static_cast<size_t>(i)],
                                        seg.max_norm, seg.max_bias);
    return !eval::ScoredBefore(bound, seg.begin, h.front().score,
                               h.front().id);
  };
  const auto consume = [&](int64_t i, const float* scores,
                           const PanelSeg& seg) {
    const auto ui = static_cast<size_t>(i);
    const SkipCursor filtered =
        opts.filter != nullptr
            ? SkipCursor(opts.filter->Tails(heads[ui], rels[ui]))
            : SkipCursor();
    UpdateHeap(&heaps[ui], k, scores, seg.begin, seg.end - seg.begin,
               filtered, opts.keep, CursorOver(opts.exclude),
               CursorOver(opts.restrict_to));
  };
  // Serial, in schedule order: a query's sit-out reads the heap that
  // earlier panels filled.
  SweepCounts counts;
  tensor::pool::ScratchLease scores(b * std::min(config_.panel_width, n));
  std::vector<uint8_t> skip(static_cast<size_t>(b));
  for (const PanelSeg& seg : segs) {
    counts.Add(SweepPanel(source_, qb, seg, prune, sits_out, consume,
                          skip.data(), scores.data()),
               b);
  }

  std::vector<TopKResult> out(static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) {
    std::vector<Entry>& heap = heaps[static_cast<size_t>(i)];
    std::sort(heap.begin(), heap.end(), BetterEntry);
    TopKResult& r = out[static_cast<size_t>(i)];
    r.ids.reserve(heap.size());
    r.scores.reserve(heap.size());
    for (const Entry& e : heap) {
      r.ids.push_back(e.id);
      r.scores.push_back(e.score);
    }
  }
  RecordSweep(b, counts.panels_scored,
              static_cast<int64_t>(segs.size()) - counts.panels_scored,
              counts.bound_rejects);
  return out;
}

Result<double> ScoreServer::RankOf(int64_t head, int64_t rel, int64_t target,
                                   const TopKOptions& opts) {
  Result<std::vector<double>> ranks =
      RankBatch({head}, {rel}, {target}, opts.filter);
  if (!ranks.ok()) return ranks.status();
  return ranks.value()[0];
}

Result<std::vector<double>> ScoreServer::RankBatch(
    const std::vector<int64_t>& heads, const std::vector<int64_t>& rels,
    const std::vector<int64_t>& targets, const kg::FilterIndex* filter) {
  CAME_RETURN_IF_ERROR(ValidateIds(heads, rels, &targets));
  if (heads.empty()) return std::vector<double>();

  const bool prune = config_.prune;
  const QueryBlock qb =
      PrepareQueries(EncodeQueries(heads, rels), source_->dtype(), prune);
  const int64_t b = qb.b;

  // Query i's target row is scored once, against query i alone, through
  // the sweep's own ScorePanel; a score's bits do not depend on the GEMM
  // shape, so this is the target's sweep score bit for bit.
  std::vector<float> target_scores(static_cast<size_t>(b));
  std::vector<std::span<const int64_t>> known_tails(static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) {
    const auto ui = static_cast<size_t>(i);
    ScorePanel(source_, qb, i, i + 1, targets[ui], targets[ui] + 1,
               &target_scores[ui]);
    if (filter != nullptr) known_tails[ui] = filter->Tails(heads[ui], rels[ui]);
  }
  const auto fresh_accumulators = [&] {
    std::vector<eval::RankAccumulator> accs;
    accs.reserve(static_cast<size_t>(b));
    for (size_t i = 0; i < static_cast<size_t>(b); ++i)
      accs.emplace_back(target_scores[i], targets[i], known_tails[i]);
    return accs;
  };

  // A query sits out a panel whose bound is *strictly* below its target
  // score, as every candidate there scores strictly worse (or NaN, which
  // the accumulator ignores); bound-equal panels are scored, since equal
  // scores count half a rank each. A NaN target ranks worst by protocol,
  // so its query sits out every panel.
  const std::vector<PanelSeg> segs =
      PanelSchedule(*source_, config_.panel_width, prune, qb.max_norm);
  const auto sits_out = [&](int64_t i, const PanelSeg& seg) {
    const float s_target = target_scores[static_cast<size_t>(i)];
    return std::isnan(s_target) ||
           PanelScoreBound(qb.norms[static_cast<size_t>(i)], seg.max_norm,
                           seg.max_bias) < s_target;
  };

  // That sit-out reads nothing an earlier panel wrote, so the panels are
  // independent and run in parallel, one pool chunk each. A chunk scores
  // into its own lease under its own pin (the GEMM and the consume loop
  // nested in it run inline) and counts into its own accumulators, which
  // are merged at the end. The counts are integers, so every rank and
  // stat is the same at any thread count and in any chunk order.
  std::vector<eval::RankAccumulator> accs = fresh_accumulators();
  SweepCounts counts;
  Mutex mu;
  const int64_t width = std::min(config_.panel_width, source_->num_entities());
  const auto sweep_chunk = [&](int64_t lo, int64_t hi) {
    std::vector<eval::RankAccumulator> part = fresh_accumulators();
    const auto consume = [&](int64_t i, const float* scores,
                             const PanelSeg& seg) {
      part[static_cast<size_t>(i)].Accumulate(scores, seg.begin,
                                              seg.end - seg.begin);
    };
    tensor::pool::ScratchLease scores(b * width);
    std::vector<uint8_t> skip(static_cast<size_t>(b));
    SweepCounts local;
    for (int64_t p = lo; p < hi; ++p) {
      local.Add(SweepPanel(source_, qb, segs[static_cast<size_t>(p)], prune,
                           sits_out, consume, skip.data(), scores.data()),
                b);
    }
    MutexLock lock(&mu);
    for (size_t i = 0; i < part.size(); ++i) accs[i].Merge(part[i]);
    counts.panels_scored += local.panels_scored;
    counts.bound_rejects += local.bound_rejects;
  };
  ParallelFor(0, static_cast<int64_t>(segs.size()), 1, sweep_chunk);
  RecordSweep(b, counts.panels_scored,
              static_cast<int64_t>(segs.size()) - counts.panels_scored,
              counts.bound_rejects);
  std::vector<double> ranks(static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) {
    ranks[static_cast<size_t>(i)] =
        accs[static_cast<size_t>(i)].Rank(source_->num_entities());
  }
  return ranks;
}

void ScoreServer::RecordSweep(int64_t queries, int64_t panels_scored,
                              int64_t panels_skipped, int64_t bound_rejects) {
  stats_.queries_served.fetch_add(queries, std::memory_order_relaxed);
  stats_.batches_executed.fetch_add(1, std::memory_order_relaxed);
  stats_.panels_scored.fetch_add(panels_scored, std::memory_order_relaxed);
  stats_.panels_skipped.fetch_add(panels_skipped, std::memory_order_relaxed);
  stats_.bound_rejects.fetch_add(bound_rejects, std::memory_order_relaxed);
}

ScoreServer::Stats ScoreServer::GetStats() const {
  Stats s;
  s.queries_served = stats_.queries_served.load(std::memory_order_relaxed);
  s.batches_executed =
      stats_.batches_executed.load(std::memory_order_relaxed);
  s.panels_scored = stats_.panels_scored.load(std::memory_order_relaxed);
  s.panels_skipped = stats_.panels_skipped.load(std::memory_order_relaxed);
  s.bound_rejects = stats_.bound_rejects.load(std::memory_order_relaxed);
  return s;
}

}  // namespace came::infer
