#ifndef CAME_CORE_TCA_H_
#define CAME_CORE_TCA_H_

#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/random.h"
#include "nn/module.h"

namespace came::core {

/// Configuration of the Triple Co-Attention operator (paper Section IV-A).
struct TcaConfig {
  /// Width of both inputs. The paper's Eq. (6) sums co- and intra-
  /// attention outputs, which is only well-typed when d1 == d2; every use
  /// in the paper projects its inputs to a common width first (see
  /// DESIGN.md), so this operator requires equal input widths.
  int64_t dim = 64;
  /// Number of attention heads m (paper best: 2 on DRKG-MM, 3 on OMAHA-MM).
  int num_heads = 2;
  /// Temperature interval lambda of Eq. (8); the i-th head divides its
  /// affinity matrices by tau_i = tau0 * (lambda * i).
  float interval = 5.0f;
  /// Initial value of the learnable base temperature tau0.
  float tau0_init = 1.0f;
};

/// Triple Co-Attention (TCA) operator.
///
/// Per head, three affinity matrices are built from sigmoid projections of
/// the two inputs Q, D (Eq. 1/4):
///   M_co    = s(Q Wq_co) (x) s(D Wd_co)      (batched outer product)
///   M_in^q  = s(Q Wq_co) (x) s(Q Wq_in)
///   M_in^d  = s(D Wd_co) (x) s(D Wd_in)
/// with Wq_co / Wd_co shared between the co- and intra-affinities so both
/// live in the same subspace. Each matrix is scaled by the head's
/// learnable temperature, row/column-softmaxed (Eq. 2), and applied back
/// to the inputs (Eq. 3/5); co- and intra-attention add (Eq. 6), heads
/// concatenate and project back to `dim` (Eq. 7).
class Tca : public nn::Module {
 public:
  Tca(const TcaConfig& config, Rng* rng);

  /// Returns (Q_tca, D_tca), both [B, dim], for inputs of shape [B, dim].
  std::pair<ag::Var, ag::Var> Forward(const ag::Var& q,
                                      const ag::Var& d) const;

  const TcaConfig& config() const { return config_; }
  /// Current value of the learnable base temperature (diagnostics).
  float tau0() const { return tau0_.value().data()[0]; }

 private:
  TcaConfig config_;
  // Per-head projections, each [dim, dim].
  std::vector<ag::Var> w_co_q_, w_co_d_, w_in_q_, w_in_d_;
  ag::Var w_head_q_;  // [m*dim, dim]
  ag::Var w_head_d_;  // [m*dim, dim]
  ag::Var tau0_;      // [1], learnable
};

}  // namespace came::core

#endif  // CAME_CORE_TCA_H_
