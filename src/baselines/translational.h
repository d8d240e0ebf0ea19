#ifndef CAME_BASELINES_TRANSLATIONAL_H_
#define CAME_BASELINES_TRANSLATIONAL_H_

#include <string>
#include <vector>

#include "baselines/kgc_model.h"

namespace came::baselines {

/// TransE (Bordes et al., 2013): score(h,r,t) = -||h + r - t||^2.
/// Scoring against all tails uses the quadratic expansion
/// ||a - t||^2 = ||a||^2 - 2 a.t + ||t||^2 with a = h + r, so evaluation
/// is two GEMMs rather than an N-fold loop.
class TransE : public KgcModel {
 public:
  TransE(const ModelContext& context, int64_t dim);

  std::string Name() const override { return "TransE"; }
  TrainingRegime regime() const override {
    return TrainingRegime::kNegativeSampling;
  }
  ag::Var ScoreTriples(const std::vector<int64_t>& heads,
                       const std::vector<int64_t>& rels,
                       const std::vector<int64_t>& tails) override;
  ag::Var ScoreAllTails(const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) override;

 private:
  ag::Var Translate(const std::vector<int64_t>& heads,
                    const std::vector<int64_t>& rels);
  ag::Var entities_;   // [N, d]
  ag::Var relations_;  // [2R, d]
};

/// PairRE (Chao et al., 2021): score = -||h o r_H - t o r_T||^2 with two
/// relation vectors r_H, r_T.
class PairRe : public KgcModel {
 public:
  PairRe(const ModelContext& context, int64_t dim);

  std::string Name() const override { return "PairRE"; }
  TrainingRegime regime() const override {
    return TrainingRegime::kSelfAdversarial;
  }
  ag::Var ScoreTriples(const std::vector<int64_t>& heads,
                       const std::vector<int64_t>& rels,
                       const std::vector<int64_t>& tails) override;
  ag::Var ScoreAllTails(const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) override;

 private:
  ag::Var entities_;       // [N, d]
  ag::Var rel_head_;       // [2R, d]
  ag::Var rel_tail_;       // [2R, d]
};

/// Shared quadratic expansion: scores = -(||a||^2 - 2 a E^T + ||E||^2)
/// rows for a [B, d] against table [N, d].
ag::Var NegativeSquaredDistanceToAll(const ag::Var& a, const ag::Var& table);
/// Aligned variant: -||a - b||^2 per row.
ag::Var NegativeSquaredDistance(const ag::Var& a, const ag::Var& b);

/// L1 variants (RotatE's original metric): -||a - E||_1 per candidate.
/// Materialises a [B, N, d] intermediate; used with modest B*N*d only.
ag::Var NegativeL1DistanceToAll(const ag::Var& a, const ag::Var& table);
ag::Var NegativeL1Distance(const ag::Var& a, const ag::Var& b);

}  // namespace came::baselines

#endif  // CAME_BASELINES_TRANSLATIONAL_H_
