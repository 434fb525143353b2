// uncertainty_triage: demonstrates the risk-aware decision-making the paper
// argues for (Sec. II-B/II-C). Instead of thresholding a probability, the
// conformal prediction regions split a batch of circuits into three queues:
//
//   ACCEPT   — region = {TF} at the chosen confidence: ship it,
//   REJECT   — region = {TI}: quarantine the IP block,
//   REVIEW   — region = {TF, TI} (or empty): the model abstains; a human
//              looks at exactly these, and validity guarantees bound how
//              often the accepted queue hides a real Trojan.
//
//   ./build/example_uncertainty_triage [confidence=0.9]

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string_view>
#include <vector>

#include "core/detector.h"
#include "cp/icp.h"
#include "data/corpus.h"
#include "data/dataset.h"
#include "util/csv.h"

using namespace noodle;

namespace {

/// argv[1] is the confidence level (default 0.9). Anything but a number
/// strictly between 0 and 1 prints usage and exits 2, before any training.
double parse_confidence(int argc, char** argv) {
  if (argc < 2) return 0.9;
  const std::string_view arg = argv[1];
  double confidence = 0.0;
  const auto [end, error] =
      std::from_chars(arg.data(), arg.data() + arg.size(), confidence);
  if (error != std::errc{} || end != arg.data() + arg.size() ||
      !(confidence > 0.0 && confidence < 1.0)) {
    std::cerr << "usage: " << argv[0] << " [CONFIDENCE]\n"
              << "  CONFIDENCE: confidence level strictly between 0 and 1 (default 0.9)\n";
    std::exit(2);
  }
  return confidence;
}

}  // namespace

int main(int argc, char** argv) {
  const double confidence = parse_confidence(argc, argv);

  std::cout << "uncertainty-aware triage at " << util::format_fixed(confidence * 100, 0)
            << "% confidence\n\ntraining detector..." << std::flush;
  core::DetectorConfig config;
  config.seed = 42;
  config.confidence_level = confidence;
  core::NoodleDetector detector(config);
  detector.fit_default();
  const std::shared_ptr<const core::FittedModel> model = detector.fitted_model();
  std::cout << " done\n";

  // A fresh batch of unseen circuits with ground truth for scoring.
  data::CorpusSpec spec;
  spec.design_count = 120;
  spec.infected_fraction = 0.3;
  spec.seed = 777;
  const auto batch = data::build_corpus(spec);

  std::size_t accept = 0, reject = 0, review = 0;
  std::size_t accept_wrong = 0, reject_wrong = 0;
  std::size_t review_infected = 0;
  for (const auto& circuit : batch) {
    const core::DetectionReport report = model->scan_verilog(circuit.verilog);
    if (report.region.is_singleton()) {
      if (report.region.contains[1]) {
        ++reject;
        if (!circuit.infected) ++reject_wrong;
      } else {
        ++accept;
        if (circuit.infected) ++accept_wrong;
      }
    } else {
      ++review;
      if (circuit.infected) ++review_infected;
    }
  }

  const auto pct = [&batch](std::size_t n) {
    return util::format_fixed(100.0 * static_cast<double>(n) /
                                  static_cast<double>(batch.size()),
                              1) + "%";
  };
  std::cout << "\nbatch of " << batch.size() << " unseen circuits:\n";
  std::cout << "  ACCEPT (region {TF}): " << accept << " (" << pct(accept)
            << "), containing " << accept_wrong << " missed Trojans\n";
  std::cout << "  REJECT (region {TI}): " << reject << " (" << pct(reject)
            << "), containing " << reject_wrong << " false alarms\n";
  std::cout << "  REVIEW (uncertain)  : " << review << " (" << pct(review)
            << "), containing " << review_infected << " real Trojans\n";

  std::cout << "\nreading: raising the confidence level moves circuits from the "
               "automatic queues into REVIEW;\nthe conformal validity guarantee "
               "bounds the per-class error of the automatic decisions near "
            << util::format_fixed((1.0 - confidence) * 100, 0)
            << "%.\nre-run with a different confidence, e.g. "
               "./build/example_uncertainty_triage 0.8\n";
  return 0;
}
