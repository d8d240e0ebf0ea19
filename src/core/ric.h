#ifndef CAME_CORE_RIC_H_
#define CAME_CORE_RIC_H_

#include <memory>
#include <vector>

#include "core/tca.h"

namespace came::core {

/// Configuration of the Relation-aware Interactive TCA module
/// (Section IV-C).
struct RicConfig {
  int64_t rel_dim = 64;             // d_r (== d_e in the paper)
  std::vector<int64_t> input_dims;  // one per modality
  TcaConfig tca;                    // tca.dim is set to rel_dim
  // Ablation switches.
  bool use_tca = true;  // w/o TCA: interactive pair = (proj(h), r)
  bool enabled = true;  // w/o RIC: v = [proj(h) ; r] without interaction
};

/// RIC: builds the multimodal entity-relation interactive representations
/// v_w = [h'_w ; r'_w] with (h'_w, r'_w) = TCA(h_w, r) per modality
/// (Eq. 14). Modal inputs are first projected to the relation width so
/// the TCA operator is well-typed (see DESIGN.md on Eq. 14's dimensions).
class Ric : public nn::Module {
 public:
  Ric(const RicConfig& config, Rng* rng);

  /// Returns one v_w [B, 2*rel_dim] per modality.
  std::vector<ag::Var> Forward(const std::vector<ag::Var>& modal_inputs,
                               const ag::Var& relation) const;

  // The pieces of Forward, for callers that fold the head-only and
  // relation-only halves (CamE serving): v_i is
  //   interactive: concat(tca(i).Forward(Project(i, modal_i), r))
  //   otherwise:   [Project(i, modal_i) ; r]

  /// True when each modality pair runs through TCA (neither ablation
  /// switch is off).
  bool interactive() const { return config_.enabled && config_.use_tca; }
  /// h_i = modal_i W_proj_i, [B, rel_dim].
  ag::Var Project(size_t i, const ag::Var& modal) const;
  /// Modality i's TCA operator.
  const Tca& tca(size_t i) const { return *modal_tca_[i]; }

 private:
  RicConfig config_;
  std::vector<ag::Var> proj_;                   // [input_dims[i], rel_dim]
  std::vector<std::unique_ptr<Tca>> modal_tca_;  // one per modality
};

}  // namespace came::core

#endif  // CAME_CORE_RIC_H_
