#pragma once
// The classifier arms evaluated in the paper (Table I):
//   * SingleModalityModel — one CNN + Mondrian ICP on one modality,
//   * EarlyFusionModel    — feature-level fusion: modalities concatenated
//                           before a single CNN + ICP (Eq. 3),
//   * LateFusionModel     — decision-level fusion: per-modality CNN + ICP,
//                           conformal p-values combined per class label
//                           (Eq. 2 + Algorithm 1).
//
// All arms use the same CNN factory with identical hyperparameters, as the
// paper stresses; they differ only in where information is fused.

#include <array>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cp/combine.h"
#include "cp/icp.h"
#include "data/dataset.h"
#include "feat/normalize.h"
#include "nn/trainer.h"

namespace noodle::fusion {

enum class Modality { Graph, Tabular };

const char* to_string(Modality modality) noexcept;

struct FusionConfig {
  nn::TrainConfig train;
  cp::NonconformityKind nonconformity = cp::NonconformityKind::InverseProbability;
  cp::CombinationMethod combiner = cp::CombinationMethod::Fisher;
  /// Late-fusion probability estimate: blend between the normalized
  /// combined p-values (weight) and the per-modality model-probability
  /// ensemble average (1 - weight).
  double late_probability_blend = 0.5;
  std::uint64_t seed = 23;
};

/// One prediction: calibrated probability of Trojan-infected plus the
/// conformal p-value pair {p(TF), p(TI)}.
struct Prediction {
  double probability = 0.0;
  std::array<double, 2> p_values{0.0, 0.0};
};

/// Batch-decomposition unit shared by every bulk prediction path
/// (ClassifierArm::predict_all, core::FittedModel::scan_many): bounded
/// chunks cap the per-thread scratch high-water mark, and a fixed size
/// keeps the decomposition independent of thread count. Chunking never
/// changes a value — batched prediction is bit-identical at any batch
/// size.
inline constexpr std::size_t kPredictionChunk = 32;

/// Shared shape: fit on proper-training + calibration sets, then predict.
class ClassifierArm {
 public:
  virtual ~ClassifierArm() = default;

  /// Trains the CNN(s) on `train` and calibrates the ICP(s) on `cal`.
  /// Samples must have complete modalities (impute beforehand).
  virtual void fit(const data::FeatureDataset& train, const data::FeatureDataset& cal) = 0;

  /// Predicts one sample. Const and, for the single/early arms, stateless —
  /// concurrent calls on a fitted arm are safe (the batch scan layer relies
  /// on this). The late-fusion override additionally refreshes its
  /// interpretability cache; see LateFusionModel.
  virtual Prediction predict(const data::FeatureSample& sample) const = 0;

  /// Batched prediction: standardizes the whole span into one matrix and
  /// runs one CNN forward per model (the batched inference engine), instead
  /// of a 1-row forward per sample. Results are bit-identical to calling
  /// predict() per sample, in order (asserted in tests/test_nn_engine.cpp).
  /// Stateless and safe for concurrent use on a fitted arm — unlike the
  /// late arm's predict(), batching never touches the interpretability
  /// cache.
  virtual std::vector<Prediction> predict_batch(
      std::span<const data::FeatureSample> samples) const = 0;

  virtual std::string name() const = 0;

  /// Serializes the fitted state (scaler, CNN weights, ICP calibration) so
  /// a detector snapshot can round-trip the arm bit-exactly (F64) or at
  /// half the weight payload (F32 — scaler and ICP stay f64; only the CNN
  /// parameters are rounded).
  virtual void save(std::ostream& os,
                    nn::WeightPrecision precision = nn::WeightPrecision::F64) const = 0;

  /// Restores state saved by the same arm type constructed with the same
  /// FusionConfig (the CNN is rebuilt from the saved scaler dimension, then
  /// its weights are overwritten). Throws std::runtime_error on malformed
  /// or mismatched input.
  virtual void load(std::istream& is) = 0;

  /// Whole-dataset convenience wrapper over predict_batch().
  std::vector<Prediction> predict_all(const data::FeatureDataset& dataset) const;
};

class SingleModalityModel : public ClassifierArm {
 public:
  SingleModalityModel(Modality modality, FusionConfig config);
  void fit(const data::FeatureDataset& train, const data::FeatureDataset& cal) override;
  Prediction predict(const data::FeatureSample& sample) const override;
  std::vector<Prediction> predict_batch(
      std::span<const data::FeatureSample> samples) const override;
  std::string name() const override;
  void save(std::ostream& os, nn::WeightPrecision precision) const override;
  void load(std::istream& is) override;

 private:
  Modality modality_;
  FusionConfig config_;
  feat::Standardizer scaler_;
  nn::Sequential model_;
  cp::MondrianIcp icp_;
};

class EarlyFusionModel : public ClassifierArm {
 public:
  explicit EarlyFusionModel(FusionConfig config);
  void fit(const data::FeatureDataset& train, const data::FeatureDataset& cal) override;
  Prediction predict(const data::FeatureSample& sample) const override;
  std::vector<Prediction> predict_batch(
      std::span<const data::FeatureSample> samples) const override;
  std::string name() const override { return "early_fusion"; }
  void save(std::ostream& os, nn::WeightPrecision precision) const override;
  void load(std::istream& is) override;

 private:
  FusionConfig config_;
  feat::Standardizer scaler_;  // over the concatenated vector
  nn::Sequential model_;
  cp::MondrianIcp icp_;
};

/// One late-fusion prediction together with the per-modality p-values that
/// produced it (the interpretability claim of the paper's fusion section).
struct LateFusionDetail {
  Prediction fused;
  /// {graph, tabular} conformal p-value pairs.
  std::array<std::array<double, 2>, 2> per_modality{};
};

class LateFusionModel : public ClassifierArm {
 public:
  explicit LateFusionModel(FusionConfig config);
  void fit(const data::FeatureDataset& train, const data::FeatureDataset& cal) override;

  /// Predicts and refreshes last_modality_p_values(). Because of that cache
  /// refresh this override is NOT safe to call concurrently; parallel
  /// callers (FittedModel::scan_many) use predict_detail() instead.
  Prediction predict(const data::FeatureSample& sample) const override;

  /// Pure prediction returning the per-modality p-values alongside the
  /// fused result. Stateless and safe for concurrent use on a fitted model.
  LateFusionDetail predict_detail(const data::FeatureSample& sample) const;

  /// Batched fused predictions: one batched forward per modality arm, then
  /// per-sample p-value combination. Bit-identical to predict_detail(i).fused
  /// per sample; never touches the interpretability cache.
  std::vector<Prediction> predict_batch(
      std::span<const data::FeatureSample> samples) const override;

  std::string name() const override { return "late_fusion"; }
  void save(std::ostream& os, nn::WeightPrecision precision) const override;
  void load(std::istream& is) override;

  /// Per-modality p-values of the last predict() call, exposed so callers
  /// can report each modality's contribution.
  const std::array<std::array<double, 2>, 2>& last_modality_p_values() const noexcept {
    return last_p_values_;
  }

 private:
  /// Decision-level fusion of one sample's per-modality predictions; the
  /// single code path behind predict_detail() and predict_batch().
  LateFusionDetail fuse(const Prediction& graph_prediction,
                        const Prediction& tabular_prediction) const;

  FusionConfig config_;
  SingleModalityModel graph_arm_;
  SingleModalityModel tabular_arm_;
  /// Single-threaded convenience cache only; predict_detail() never touches it.
  mutable std::array<std::array<double, 2>, 2> last_p_values_{};
};

// --- shared helpers (exposed for tests and the experiment harness) ---

/// Extracts the modality matrix of a dataset.
nn::Matrix modality_matrix(const data::FeatureDataset& dataset, Modality modality);

/// Concatenated [graph || tabular] matrix.
nn::Matrix joint_matrix(const data::FeatureDataset& dataset);

/// Turns a pair of per-class combined p-values into a probability of the
/// positive class: p(TI) / (p(TF) + p(TI)); 0.5 when both vanish.
double p_value_probability(const std::array<double, 2>& p_values);

}  // namespace noodle::fusion
