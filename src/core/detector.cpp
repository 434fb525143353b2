#include "core/detector.h"

#include <stdexcept>

#include "data/dataset.h"
#include "metrics/brier.h"
#include "util/rng.h"

namespace noodle::core {

NoodleDetector::NoodleDetector(DetectorConfig config) : config_(std::move(config)) {
  config_.fusion.seed = config_.seed + 13;
}

void NoodleDetector::fit(const std::vector<data::CircuitSample>& corpus) {
  if (corpus.empty()) throw std::invalid_argument("NoodleDetector::fit: empty corpus");
  data::FeatureDataset dataset = data::featurize_corpus(corpus);

  if (config_.use_gan) {
    gan::GanConfig gan_config = config_.gan;
    gan_config.seed = config_.seed + 7;
    dataset = gan::augment_with_gan(dataset, config_.gan_target_per_class, gan_config);
  }

  // Split into proper training + calibration (Mondrian ICP requirement).
  util::Rng rng(config_.seed);
  const double train_fraction = config_.train_fraction;
  const double cal_fraction = 1.0 - train_fraction - 1e-9;
  const data::SplitIndices split =
      data::stratified_split(dataset.labels(), train_fraction, cal_fraction, rng);
  // stratified_split reserves a test shard; merge it into calibration since
  // the detector keeps no internal test set.
  std::vector<std::size_t> cal_indices = split.cal;
  cal_indices.insert(cal_indices.end(), split.test.begin(), split.test.end());

  const data::FeatureDataset train = data::subset(dataset, split.train);
  const data::FeatureDataset cal = data::subset(dataset, cal_indices);

  fusion::EarlyFusionModel early(config_.fusion);
  fusion::LateFusionModel late(config_.fusion);
  early.fit(train, cal);
  late.fit(train, cal);

  // Winner selection on the calibration split (Algorithm 2, step 8).
  const std::vector<int> cal_labels = cal.labels();
  auto arm_brier = [&cal, &cal_labels](fusion::ClassifierArm& arm) {
    std::vector<double> probs;
    probs.reserve(cal.size());
    for (const auto& prediction : arm.predict_all(cal)) {
      probs.push_back(prediction.probability);
    }
    return metrics::brier_score(probs, cal_labels);
  };
  const double early_brier = arm_brier(early);
  const double late_brier = arm_brier(late);
  const std::string winner = late_brier <= early_brier ? "late_fusion" : "early_fusion";

  model_ = std::make_shared<const FittedModel>(config_, std::move(early), std::move(late),
                                               winner);
}

void NoodleDetector::fit_default() {
  data::CorpusSpec spec;
  spec.design_count = 240;
  spec.infected_fraction = 0.3;
  spec.seed = config_.seed;
  fit(data::build_corpus(spec));
}

}  // namespace noodle::core
