// zero_day_hunt: the zero-day scenario from the paper's introduction.
// Train a detector that has NEVER seen sequence-trigger Trojans, then
// confront it with them, and compare against a detector trained on all
// trigger families. Shows both the generalization NOODLE's structural
// features buy and the gap that remains.
//
//   ./build/example_zero_day_hunt

#include <iostream>
#include <memory>

#include "core/detector.h"
#include "data/corpus.h"
#include "util/csv.h"

using namespace noodle;

namespace {

std::shared_ptr<const core::FittedModel> train_detector(
    const std::vector<trojan::TriggerKind>& triggers, std::uint64_t seed) {
  data::CorpusSpec spec;
  spec.design_count = 120;
  spec.infected_fraction = 0.3;
  spec.seed = seed;
  spec.allowed_triggers = triggers;

  core::DetectorConfig config;
  config.seed = seed;
  core::NoodleDetector detector(config);
  detector.fit(data::build_corpus(spec));
  return detector.fitted_model();
}

struct Score {
  double detection_rate = 0.0;   // sensitivity on zero-day Trojans
  double false_alarm_rate = 0.0; // on clean circuits of the same batch
};

Score evaluate(const core::FittedModel& model,
               const std::vector<data::CircuitSample>& batch) {
  std::size_t hits = 0, positives = 0, alarms = 0, negatives = 0;
  for (const auto& circuit : batch) {
    const auto report = model.scan_verilog(circuit.verilog);
    const bool flagged = report.predicted_label == data::kTrojanInfected;
    if (circuit.infected) {
      ++positives;
      if (flagged) ++hits;
    } else {
      ++negatives;
      if (flagged) ++alarms;
    }
  }
  Score score;
  if (positives > 0)
    score.detection_rate = static_cast<double>(hits) / static_cast<double>(positives);
  if (negatives > 0)
    score.false_alarm_rate =
        static_cast<double>(alarms) / static_cast<double>(negatives);
  return score;
}

}  // namespace

int main() {
  std::cout << "zero-day hunt: sequence-trigger Trojans withheld from training\n\n";

  std::cout << "training detector A (never saw sequence triggers)..." << std::flush;
  const auto detector_a = train_detector(
      {trojan::TriggerKind::TimeBomb, trojan::TriggerKind::CheatCode}, 42);
  std::cout << " done\ntraining detector B (saw all trigger families)..."
            << std::flush;
  const auto detector_b = train_detector(
      {trojan::TriggerKind::TimeBomb, trojan::TriggerKind::CheatCode,
       trojan::TriggerKind::Sequence},
      42);
  std::cout << " done\n\n";

  // Attack batch: every infection is a sequence trigger (zero-day for A).
  data::CorpusSpec attack;
  attack.design_count = 120;
  attack.infected_fraction = 0.3;
  attack.seed = 4242;
  attack.allowed_triggers = {trojan::TriggerKind::Sequence};
  const auto batch = data::build_corpus(attack);

  const Score a = evaluate(*detector_a, batch);
  const Score b = evaluate(*detector_b, batch);

  std::cout << "attack batch: " << batch.size()
            << " circuits, all infections sequence-triggered\n\n";
  std::cout << "                      detection rate   false alarms\n";
  std::cout << "A (zero-day)          "
            << util::format_fixed(a.detection_rate, 3) << "            "
            << util::format_fixed(a.false_alarm_rate, 3) << "\n";
  std::cout << "B (in-distribution)   "
            << util::format_fixed(b.detection_rate, 3) << "            "
            << util::format_fixed(b.false_alarm_rate, 3) << "\n\n";
  std::cout << "reading: detector A still catches a large share of the unseen "
               "family — sequence triggers leave\nthe same structural residue "
               "(rare comparators, extra FSM state, output muxes) the features "
               "key on —\nbut the gap to detector B is the zero-day cost the "
               "paper's data-amplification argument targets.\n";
  return 0;
}
