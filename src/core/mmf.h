#ifndef CAME_CORE_MMF_H_
#define CAME_CORE_MMF_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/tca.h"

namespace came::core {

/// The EX exchanging-fusion step (paper Eq. 10-12): positions whose
/// LayerNorm-ed activation falls below `theta` are considered unimportant
/// (smaller-norm-less-information) and are replaced by the other
/// modality's value at the same position. Both masks are computed from
/// the *inputs* before either side is modified; no gradient flows through
/// the threshold decision itself.
std::pair<ag::Var, ag::Var> ExchangeFusion(const ag::Var& x, const ag::Var& y,
                                           float theta);

/// Configuration of the Multimodal TCA Fusion module (Section IV-B).
struct MmfConfig {
  int64_t fusion_dim = 64;             // d_f
  std::vector<int64_t> input_dims;     // one per modality (2 or 3 of them)
  TcaConfig tca;                       // tca.dim is set to fusion_dim
  float exchange_theta = -0.5f;
  // Ablation switches (Fig 6).
  bool use_tca = true;       // w/o TCA: pairwise matching becomes identity
  bool use_exchange = true;  // w/o EX
  bool enabled = true;       // w/o MMF: fusion = plain Hadamard product
};

/// MMF: projects each modality to the fusion space, runs pairwise TCA
/// matching over every modality pair, exchanges low-attention features
/// (EX), and fuses the pair outputs with low-rank bilinear pooling
/// (Eq. 13) into the joint representation h_f.
class Mmf : public nn::Module {
 public:
  Mmf(const MmfConfig& config, Rng* rng);

  /// `modal_inputs[i]` is [B, input_dims[i]]; returns h_f [B, fusion_dim].
  ag::Var Forward(const std::vector<ag::Var>& modal_inputs) const;

 private:
  MmfConfig config_;
  std::vector<ag::Var> proj_;  // W_i: [input_dims[i], fusion_dim]
  std::vector<std::unique_ptr<Tca>> pair_tca_;  // one per modality pair
  // Low-rank bilinear pooling (Eq. 13).
  std::vector<ag::Var> bilinear_u_;  // per pair [d_f, d_f]
  std::vector<ag::Var> bilinear_v_;  // per pair [d_f, d_f]
  ag::Var pool_p_;                   // [d_f, d_f]
  ag::Var pool_b_;                   // [d_f]
};

}  // namespace came::core

#endif  // CAME_CORE_MMF_H_
