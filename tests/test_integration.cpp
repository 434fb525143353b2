// End-to-end tests of the experiment harness and of NoodleDetector plus the
// FittedModel it produces, run on deliberately small configurations so ctest stays fast while
// still covering the full corpus -> features -> GAN -> CNN -> ICP -> fusion
// pipeline.

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/experiment.h"
#include "verilog/parser.h"
#include "verilog/printer.h"

namespace noodle::core {
namespace {

ExperimentConfig small_experiment(std::uint64_t seed = 5) {
  ExperimentConfig config;
  config.seed = seed;
  config.corpus.design_count = 72;
  config.corpus.infected_fraction = 0.35;
  config.use_gan = true;
  config.gan_target_per_class = 40;
  config.gan.epochs = 30;
  config.fusion.train.epochs = 12;
  config.fusion.train.validation_fraction = 0.0;
  return config;
}

TEST(Experiment, RunsEndToEndWithSaneOutputs) {
  const ExperimentResult result = run_experiment(small_experiment());
  EXPECT_GT(result.test_size, 0u);
  EXPECT_EQ(result.test_labels.size(), result.test_size);
  for (const auto* arm : result.arms()) {
    EXPECT_EQ(arm->probabilities.size(), result.test_size);
    EXPECT_EQ(arm->p_values.size(), result.test_size);
    EXPECT_GE(arm->brier, 0.0);
    EXPECT_LE(arm->brier, 1.0);
    for (const double p : arm->probabilities) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
  EXPECT_TRUE(result.winner == "early_fusion" || result.winner == "late_fusion");
  EXPECT_EQ(&result.winning_arm(),
            result.winner == "early_fusion" ? &result.early_fusion
                                            : &result.late_fusion);
}

TEST(Experiment, DetectsBetterThanChance) {
  const ExperimentResult result = run_experiment(small_experiment(8));
  // Even the weaker arms must clearly beat coin-flipping on this corpus.
  EXPECT_GT(result.winning_arm().consolidated.auc, 0.7);
}

TEST(Experiment, DeterministicGivenSeed) {
  const ExperimentResult a = run_experiment(small_experiment(9));
  const ExperimentResult b = run_experiment(small_experiment(9));
  EXPECT_EQ(a.late_fusion.brier, b.late_fusion.brier);
  EXPECT_EQ(a.early_fusion.probabilities, b.early_fusion.probabilities);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(Experiment, SeedChangesResults) {
  const ExperimentResult a = run_experiment(small_experiment(10));
  const ExperimentResult b = run_experiment(small_experiment(11));
  EXPECT_NE(a.late_fusion.probabilities, b.late_fusion.probabilities);
}

TEST(Experiment, GanOffStillRuns) {
  ExperimentConfig config = small_experiment(12);
  config.use_gan = false;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.test_size, 0u);
  EXPECT_LT(result.total_after_gan, 80u);  // no amplification happened
}

TEST(Experiment, MissingModalityPathWithImputation) {
  ExperimentConfig config = small_experiment(13);
  config.missing_graph_rate = 0.15;
  config.missing_tabular_rate = 0.1;
  config.impute_missing = true;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.test_size, 0u);
  EXPECT_GT(result.winning_arm().consolidated.auc, 0.6);
}

TEST(Experiment, MissingModalityPathWithDropping) {
  ExperimentConfig config = small_experiment(14);
  config.missing_graph_rate = 0.2;
  config.impute_missing = false;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.test_size, 0u);
}

// ---------------------------------------------------------------------------
// NoodleDetector
// ---------------------------------------------------------------------------

DetectorConfig small_detector_config() {
  DetectorConfig config;
  config.seed = 6;
  config.use_gan = true;
  config.gan_target_per_class = 40;
  config.gan.epochs = 30;
  config.fusion.train.epochs = 12;
  config.fusion.train.validation_fraction = 0.0;
  return config;
}

data::CorpusSpec small_corpus_spec(std::uint64_t seed = 21) {
  data::CorpusSpec spec;
  spec.design_count = 72;
  spec.infected_fraction = 0.35;
  spec.seed = seed;
  return spec;
}

TEST(Detector, FitAndScanInfectedVsClean) {
  NoodleDetector detector(small_detector_config());
  EXPECT_EQ(detector.fitted_model(), nullptr);
  detector.fit(data::build_corpus(small_corpus_spec()));
  const std::shared_ptr<const FittedModel> model = detector.fitted_model();
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->winning_fusion() == "early_fusion" ||
              model->winning_fusion() == "late_fusion");

  // Score a held-out corpus: infected circuits must receive higher
  // probabilities than clean ones on average.
  const auto probe = data::build_corpus(small_corpus_spec(99));
  double infected_sum = 0.0, clean_sum = 0.0;
  std::size_t infected_count = 0, clean_count = 0;
  for (const auto& circuit : probe) {
    const DetectionReport report = model->scan_verilog(circuit.verilog);
    EXPECT_GE(report.probability, 0.0);
    EXPECT_LE(report.probability, 1.0);
    EXPECT_EQ(report.fusion_used, model->winning_fusion());
    if (circuit.infected) {
      infected_sum += report.probability;
      ++infected_count;
    } else {
      clean_sum += report.probability;
      ++clean_count;
    }
  }
  ASSERT_GT(infected_count, 0u);
  ASSERT_GT(clean_count, 0u);
  EXPECT_GT(infected_sum / static_cast<double>(infected_count),
            clean_sum / static_cast<double>(clean_count) + 0.1);
}

TEST(Detector, ReportFieldsConsistent) {
  NoodleDetector detector(small_detector_config());
  detector.fit(data::build_corpus(small_corpus_spec(31)));
  const auto probe = data::build_corpus(small_corpus_spec(32));
  const DetectionReport report = detector.fitted_model()->scan_verilog(probe.front().verilog);
  EXPECT_EQ(report.predicted_label, report.region.point_prediction);
  EXPECT_EQ(report.p_values, report.region.p);
  EXPECT_GE(report.region.credibility, 0.0);
}

TEST(Detector, ScanBeforeFitThrows) {
  NoodleDetector detector(small_detector_config());
  EXPECT_EQ(detector.fitted_model(), nullptr);
}

TEST(Detector, MalformedVerilogThrowsParseError) {
  NoodleDetector detector(small_detector_config());
  detector.fit(data::build_corpus(small_corpus_spec(41)));
  EXPECT_THROW(detector.fitted_model()->scan_verilog("module broken ("),
               verilog::ParseError);
}

TEST(Detector, EmptyCorpusRejected) {
  NoodleDetector detector(small_detector_config());
  EXPECT_THROW(detector.fit({}), std::invalid_argument);
}

TEST(Detector, MoveSemantics) {
  NoodleDetector a(small_detector_config());
  a.fit(data::build_corpus(small_corpus_spec(51)));
  NoodleDetector b = std::move(a);
  ASSERT_NE(b.fitted_model(), nullptr);
  const auto probe = data::build_corpus(small_corpus_spec(52));
  EXPECT_NO_THROW(b.fitted_model()->scan_verilog(probe.front().verilog));
}

}  // namespace
}  // namespace noodle::core
