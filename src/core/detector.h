#pragma once
// NoodleDetector — the trainer behind the library's public entry point, the
// programmatic equivalent of Fig. 1: labeled RTL in, a fitted detector out.
//
//   noodle::core::DetectorConfig config;
//   noodle::core::NoodleDetector detector(config);
//   detector.fit(training_corpus);                  // or fit_default()
//   auto model = detector.fitted_model();           // shared_ptr<const FittedModel>
//   auto report = model->scan_verilog(source);      // one RTL file
//   if (report.region.is_uncertain()) { /* escalate to manual review */ }
//
// Every scan, save and load goes through the immutable core::FittedModel
// handle (fitted_model.h); serve::ModelRegistry is the one place a live
// handle is swapped.

#include <memory>
#include <vector>

#include "core/fitted_model.h"

namespace noodle::core {

class NoodleDetector {
 public:
  explicit NoodleDetector(DetectorConfig config = {});

  /// Trains on a labeled corpus: featurizes, GAN-amplifies, trains both
  /// fusion arms, calibrates the ICPs, and selects the winning fusion by
  /// Brier score on the calibration split. Replaces the fitted model.
  void fit(const std::vector<data::CircuitSample>& corpus);

  /// Convenience: builds the default synthetic corpus and fits on it.
  void fit_default();

  /// The most recently fitted generation (nullptr before the first fit()).
  /// The handle stays valid, and unchanged, across later fits.
  std::shared_ptr<const FittedModel> fitted_model() const noexcept { return model_; }

 private:
  DetectorConfig config_;
  std::shared_ptr<const FittedModel> model_;
};

}  // namespace noodle::core
