#include "baselines/kgc_model.h"

#include "common/logging.h"
#include "common/parallel_for.h"
#include "infer/no_tape.h"
#include "tensor/tensor_ops.h"

namespace came::baselines {

InnerProductKgcModel::InnerProductKgcModel(const ModelContext& context,
                                           bool entity_bias)
    : KgcModel(context) {
  if (entity_bias) {
    bias_ = RegisterParameter("entity_bias",
                              tensor::Tensor::Zeros({context.num_entities}));
  }
}

ag::Var InnerProductKgcModel::ScoreTriples(const std::vector<int64_t>& heads,
                                           const std::vector<int64_t>& rels,
                                           const std::vector<int64_t>& tails) {
  ag::Var q = Query(heads, rels);                    // [B, d]
  ag::Var t = ag::Gather(CandidateTable(), tails);   // [B, d]
  ag::Var scores = ag::SumAlong(ag::Mul(q, t), 1, /*keepdim=*/false);  // [B]
  if (bias_.defined()) {
    ag::Var tail_bias = ag::Reshape(
        ag::Gather(ag::Reshape(bias_, {num_entities(), 1}), tails),
        {static_cast<int64_t>(tails.size())});
    scores = ag::Add(scores, tail_bias);
  }
  return scores;
}

ag::Var InnerProductKgcModel::ScoreAllTails(const std::vector<int64_t>& heads,
                                            const std::vector<int64_t>& rels) {
  ag::Var q = Query(heads, rels);                         // [B, d]
  ag::Var scores =
      ag::MatMul(q, CandidateTable(), false, /*trans_b=*/true);  // [B, N]
  if (bias_.defined()) scores = ag::Add(scores, bias_);
  return scores;
}

tensor::Tensor InnerProductKgcModel::ServingQuery(
    const std::vector<int64_t>& heads, const std::vector<int64_t>& rels) {
  CAME_CHECK(!training()) << "ServingQuery requires eval mode";
  CAME_CHECK_EQ(heads.size(), rels.size());
  if (heads.empty() || !score_rows_independent()) {
    return EagerQuery(heads, rels);
  }
  const ag::QueryPlan* plan = query_plan_.Get();
  if (plan == nullptr) {
    infer::NoTapeGuard guard;
    plan = query_plan_.Capture(
        heads[0], rels[0],
        [this](const std::vector<int64_t>& h, const std::vector<int64_t>& r) {
          return Query(h, r);
        },
        Parameters());
  }
  if (!plan->ok()) return EagerQuery(heads, rels);
  const int64_t d = plan->row_floats();
  const auto n = static_cast<int64_t>(heads.size());
  // fully-written: each row is written by its block's replay
  tensor::Tensor out = tensor::Tensor::Uninitialized({n, d});
  // Blocks of at most kBlockRows rows, as even as the count allows; grain
  // 1: one block per chunk, so a batch of one block runs on this thread.
  const int64_t blocks =
      (n + ag::QueryPlan::kBlockRows - 1) / ag::QueryPlan::kBlockRows;
  ParallelFor(0, blocks, 1, [&](int64_t b, int64_t) {
    const int64_t first = b * n / blocks;
    const int64_t rows = (b + 1) * n / blocks - first;
    plan->Replay(heads.data() + first, rels.data() + first, rows,
                 out.data() + first * d);
  });
  return out;
}

tensor::Tensor InnerProductKgcModel::EagerQuery(
    const std::vector<int64_t>& heads, const std::vector<int64_t>& rels) {
  CAME_CHECK(!training()) << "EagerQuery requires eval mode";
  infer::NoTapeGuard guard;
  return Query(heads, rels).value();
}

tensor::Tensor InnerProductKgcModel::ServingCandidates() {
  CAME_CHECK(!training()) << "ServingCandidates requires eval mode";
  infer::NoTapeGuard guard;
  return CandidateTable().value();
}

tensor::Tensor InnerProductKgcModel::ServingEntityBias() {
  if (!bias_.defined()) return tensor::Tensor();
  return bias_.value();
}

}  // namespace came::baselines
