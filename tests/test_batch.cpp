// Tests for the batch/parallel subsystem: the thread pool primitives, the
// experiment sweep runner's determinism across thread counts, and the
// detector's batch scan APIs matching their sequential equivalents exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>

#include "core/batch.h"
#include "core/detector.h"
#include "util/thread_pool.h"

namespace noodle {
namespace {

// --- thread pool primitives ------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  util::ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ResolveThreadCount, CapsAtWorkItemsAndNeverReturnsZero) {
  EXPECT_EQ(util::resolve_thread_count(8, 3), 3u);
  EXPECT_EQ(util::resolve_thread_count(2, 100), 2u);
  EXPECT_GE(util::resolve_thread_count(0, 100), 1u);
  EXPECT_EQ(util::resolve_thread_count(4, 0), 4u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> visits(257);
    util::parallel_for(visits.size(), threads,
                       [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  bool called = false;
  util::parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, MoreThreadsThanWorkStillCoversAll) {
  std::vector<std::atomic<int>> visits(3);
  util::parallel_for(visits.size(), 16, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      util::parallel_for(64, 4,
                         [](std::size_t i) {
                           if (i == 13) throw std::runtime_error("task 13 failed");
                         }),
      std::runtime_error);
}

TEST(ParallelFor, InlineWhenSingleThreadedPreservesOrder) {
  std::vector<std::size_t> order;
  util::parallel_for(8, 1, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

// --- sweep determinism -----------------------------------------------------

core::ExperimentConfig tiny_experiment(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.seed = seed;
  config.corpus.design_count = 60;
  config.corpus.infected_fraction = 0.35;
  config.gan_target_per_class = 30;
  config.gan.epochs = 20;
  config.fusion.train.epochs = 8;
  config.fusion.train.validation_fraction = 0.0;
  return config;
}

void expect_identical(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  for (std::size_t arm = 0; arm < 4; ++arm) {
    const core::ArmResult& x = *a.arms()[arm];
    const core::ArmResult& y = *b.arms()[arm];
    // Bit-identical, not approximately equal: the parallel runner must not
    // perturb any arithmetic.
    EXPECT_EQ(x.probabilities, y.probabilities) << x.name;
    EXPECT_EQ(x.p_values, y.p_values) << x.name;
    EXPECT_EQ(x.brier, y.brier) << x.name;
  }
  EXPECT_EQ(a.test_labels, b.test_labels);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(ExperimentSweep, ParallelMatchesSerialBitForBit) {
  std::vector<core::ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    configs.push_back(tiny_experiment(seed));
  }

  core::SweepOptions serial;
  serial.threads = 1;
  const auto serial_results = core::run_experiment_sweep(configs, serial);

  core::SweepOptions parallel;
  parallel.threads = 4;
  const auto parallel_results = core::run_experiment_sweep(configs, parallel);

  ASSERT_EQ(serial_results.size(), configs.size());
  ASSERT_EQ(parallel_results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(serial_results[i], parallel_results[i]);
  }
}

TEST(ExperimentSweep, MatchesDirectRunExperiment) {
  const auto config = tiny_experiment(5);
  const core::ExperimentResult direct = core::run_experiment(config);

  core::SweepOptions options;
  options.threads = 2;
  const auto swept =
      core::run_experiment_sweep(std::vector<core::ExperimentConfig>{config}, options);
  ASSERT_EQ(swept.size(), 1u);
  expect_identical(direct, swept.front());
}

TEST(ExperimentSweep, EmptySweepReturnsEmpty) {
  const auto results = core::run_experiment_sweep(std::vector<core::ExperimentConfig>{});
  EXPECT_TRUE(results.empty());
}

TEST(ExperimentSweep, ReportsProgressForEveryPointInInputIndexTerms) {
  std::vector<core::ExperimentConfig> configs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    configs.push_back(tiny_experiment(seed));
  }
  std::set<std::size_t> seen;
  core::SweepOptions options;
  options.threads = 3;
  options.on_result = [&seen](std::size_t index, const core::ExperimentResult& result) {
    EXPECT_GT(result.test_size, 0u);
    seen.insert(index);
  };
  core::run_experiment_sweep(configs, options);
  EXPECT_EQ(seen, (std::set<std::size_t>{0u, 1u, 2u}));
}

// --- detector batch scans --------------------------------------------------

class ScanMany : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::DetectorConfig config;
    config.seed = 7;
    config.gan_target_per_class = 30;
    config.gan.epochs = 20;
    config.fusion.train.epochs = 8;
    config.fusion.train.validation_fraction = 0.0;
    core::NoodleDetector detector(config);

    data::CorpusSpec spec;
    spec.design_count = 72;
    spec.infected_fraction = 0.35;
    spec.seed = 7;
    corpus_ = new std::vector<data::CircuitSample>(data::build_corpus(spec));
    detector.fit(*corpus_);
    model_ = detector.fitted_model();

    samples_ = new std::vector<data::FeatureSample>();
    for (const auto& circuit : *corpus_) samples_->push_back(data::featurize(circuit));
  }

  static void TearDownTestSuite() {
    delete samples_;
    samples_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
    model_.reset();
  }

  static void expect_same_report(const core::DetectionReport& a,
                                 const core::DetectionReport& b) {
    EXPECT_EQ(a.predicted_label, b.predicted_label);
    EXPECT_EQ(a.probability, b.probability);
    EXPECT_EQ(a.p_values, b.p_values);
    EXPECT_EQ(a.region.contains, b.region.contains);
    EXPECT_EQ(a.fusion_used, b.fusion_used);
  }

  static std::shared_ptr<const core::FittedModel> model_;
  static std::vector<data::CircuitSample>* corpus_;
  static std::vector<data::FeatureSample>* samples_;
};

std::shared_ptr<const core::FittedModel> ScanMany::model_;
std::vector<data::CircuitSample>* ScanMany::corpus_ = nullptr;
std::vector<data::FeatureSample>* ScanMany::samples_ = nullptr;

TEST_F(ScanMany, MatchesSequentialScanFeaturesAtAnyThreadCount) {
  std::vector<core::DetectionReport> sequential;
  for (const auto& sample : *samples_) {
    sequential.push_back(model_->scan_features(sample));
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const auto batched = model_->scan_many(*samples_, threads);
    ASSERT_EQ(batched.size(), sequential.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      expect_same_report(batched[i], sequential[i]);
    }
  }
}

TEST_F(ScanMany, ScanVerilogManyMatchesScanVerilog) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < 8; ++i) sources.push_back((*corpus_)[i].verilog);

  const auto batched = model_->scan_verilog_many(sources, 4);
  ASSERT_EQ(batched.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_same_report(batched[i], model_->scan_verilog(sources[i]));
  }
}

TEST_F(ScanMany, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(model_->scan_many({}, 4).empty());
  EXPECT_TRUE(model_->scan_verilog_many({}, 4).empty());
}

TEST_F(ScanMany, MalformedVerilogPropagatesFromWorkers) {
  std::vector<std::string> sources = {(*corpus_)[0].verilog, "module broken(",
                                      (*corpus_)[1].verilog};
  EXPECT_ANY_THROW(model_->scan_verilog_many(sources, 2));
}

}  // namespace
}  // namespace noodle
