#ifndef CAME_CORE_CAME_MODEL_H_
#define CAME_CORE_CAME_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/conve.h"
#include "baselines/kgc_model.h"
#include "core/mmf.h"
#include "core/ric.h"
#include "core/tca.h"

namespace came::core {

/// Full CamE configuration, covering the paper's hyperparameters
/// (Section V-B) and the ablation switches of Fig 6.
struct CamEConfig {
  int64_t embed_dim = 64;   // d_e = d_r (paper: 500 / 100)
  int64_t fusion_dim = 64;  // d_f (paper: 200)
  int num_heads = 2;        // m (paper best: 2 / 3)
  float interval = 5.0f;    // lambda (paper best: 5 / 10)
  float exchange_theta = -0.5f;  // theta (paper best: -0.5 / -2)
  float tau0_init = 1.0f;
  int64_t conv_filters = 32;  // paper: 128
  int64_t conv_kernel = 3;    // paper: 9x9 at full scale
  int64_t reshape_h = 8;
  float dropout = 0.2f;
  /// Initialise the structured-embedding table from pre-trained structural
  /// features when the feature bank carries them (paper Section III /
  /// Fig 8a trains from scratch for fair comparison).
  bool init_structural_from_pretrained = false;

  // Ablation switches (Fig 6).
  bool use_tca = true;       // w/o TCA
  bool use_exchange = true;  // w/o EX
  bool use_mmf = true;       // w/o MMF
  bool use_ric = true;       // w/o RIC
  bool use_text = true;      // w/o TD
  bool use_molecule = true;  // w/o MS
};

/// CamE (the paper's model): multimodal TCA fusion (MMF) + relation-aware
/// interactive TCA (RIC) + two-branch convolutional decoder, trained
/// 1-to-N with Bernoulli NLL (Eq. 16).
///
/// Scoring follows our typed reading of Eq. 15 (see DESIGN.md): both conv
/// branches produce query vectors matched against the structured entity
/// table:
///   branch 1 channels: h_f, v_t W_t, v_m W_m      (multimodal view)
///   branch 2 channels: v_s, v_0 = [h_s ; r]       (structural view)
///   score(h,r,t) = <f1(branch1) W_1 + f2(branch2) W_2 , E_s[t]> + b_t.
class CamE : public baselines::InnerProductKgcModel {
 public:
  CamE(const baselines::ModelContext& context, const CamEConfig& config);

  std::string Name() const override { return "CamE"; }
  baselines::TrainingRegime regime() const override {
    return baselines::TrainingRegime::kOneToN;
  }

  const CamEConfig& config() const { return config_; }
  /// Which modalities are active, in order (subset of {"molecule",
  /// "text", "structural"}).
  const std::vector<std::string>& modality_names() const {
    return modality_names_;
  }

 protected:
  ag::Var Query(const std::vector<int64_t>& heads,
                const std::vector<int64_t>& rels) override;
  ag::Var CandidateTable() override { return entities_; }

 private:
  /// Gathers the active modality vectors for a batch of entities.
  std::vector<ag::Var> GatherModalities(const std::vector<int64_t>& heads);

  CamEConfig config_;
  std::vector<std::string> modality_names_;
  std::vector<int64_t> modality_dims_;
  int molecule_slot_ = -1;  // index into the modality list, -1 if absent
  int text_slot_ = -1;
  int structural_slot_ = -1;

  ag::Var entities_;   // E_s [N, d_e] (the structured modality)
  ag::Var relations_;  // [2R, d_r]
  std::unique_ptr<Mmf> mmf_;
  std::unique_ptr<Ric> ric_;
  // Decoder branch 1 (multimodal view).
  std::vector<ag::Var> v_to_fusion_;  // W_t / W_m ... : [2*d_r, d_f]
  std::unique_ptr<nn::Conv2d> conv1_;
  std::unique_ptr<nn::Linear> fc1_;
  // Decoder branch 2 (structural view).
  std::unique_ptr<nn::Conv2d> conv2_;
  std::unique_ptr<nn::Linear> fc2_;
  std::unique_ptr<nn::LayerNorm> norm_;
  std::unique_ptr<nn::Dropout> dropout_;
};

}  // namespace came::core

#endif  // CAME_CORE_CAME_MODEL_H_
