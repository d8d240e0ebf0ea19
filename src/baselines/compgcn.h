#ifndef CAME_BASELINES_COMPGCN_H_
#define CAME_BASELINES_COMPGCN_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/kgc_model.h"

namespace came::baselines {

/// CompGCN (Vashishth et al., 2020) with subtraction composition.
///
/// Each layer aggregates phi(e_u, e_r) = e_u - e_r over incoming edges,
/// with direction-specific weights (original / inverse / self-loop), and
/// linearly transforms relation embeddings alongside. The decoder is
/// DistMult over the convolved representations; training is 1-to-N.
/// Message passing runs over the *training* graph (context.train_triples).
class CompGcn : public KgcModel {
 public:
  struct Config {
    int64_t dim = 64;
    int num_layers = 1;
    float dropout = 0.1f;
  };

  CompGcn(const ModelContext& context, const Config& config);

  std::string Name() const override { return "CompGCN"; }
  TrainingRegime regime() const override { return TrainingRegime::kOneToN; }
  /// Every score row reads the whole convolved graph.
  bool score_rows_independent() const override { return false; }

  ag::Var ScoreTriples(const std::vector<int64_t>& heads,
                       const std::vector<int64_t>& rels,
                       const std::vector<int64_t>& tails) override;
  ag::Var ScoreAllTails(const std::vector<int64_t>& heads,
                        const std::vector<int64_t>& rels) override;

  /// Convolved entity representations [N, dim] (also usable as pretrained
  /// structural features h_s for CamE).
  ag::Var ConvolvedEntities();

 private:
  struct Convolved {
    ag::Var entities;   // [N, dim]
    ag::Var relations;  // [2R, dim]
  };
  Convolved RunGcn();

  Config config_;
  ag::Var entity_embedding_;
  ag::Var relation_embedding_;
  std::vector<std::unique_ptr<nn::Linear>> w_original_;
  std::vector<std::unique_ptr<nn::Linear>> w_inverse_;
  std::vector<std::unique_ptr<nn::Linear>> w_self_;
  std::vector<std::unique_ptr<nn::Linear>> w_relation_;
  std::unique_ptr<nn::Dropout> dropout_;
  ag::Var self_loop_rel_;  // [1, dim]

  // Edge lists split by direction; computed once from train_triples.
  std::vector<int64_t> fwd_src_, fwd_dst_, fwd_rel_;
  std::vector<int64_t> inv_src_, inv_dst_, inv_rel_;
  tensor::Tensor inv_degree_;  // [N, 1] 1/(in-degree+1)
};

}  // namespace came::baselines

#endif  // CAME_BASELINES_COMPGCN_H_
