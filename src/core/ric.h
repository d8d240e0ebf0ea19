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

 private:
  RicConfig config_;
  std::vector<ag::Var> proj_;                   // [input_dims[i], rel_dim]
  std::vector<std::unique_ptr<Tca>> modal_tca_;  // one per modality
};

}  // namespace came::core

#endif  // CAME_CORE_RIC_H_
