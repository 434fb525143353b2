// trojan_scan: batch-scan a directory of Verilog files and print a triage
// table sorted by Trojan probability — the IP-qualification workflow the
// paper's introduction motivates.
//
//   ./build/example_trojan_scan [directory-of-.v-files] [snapshot-file]
//
// Without an argument, the example writes a demo directory of 12 circuits
// (3 of them infected) under ./scan_demo/ and scans that, so it is runnable
// out of the box. With a snapshot argument, the fitted detector is loaded
// from the file when it exists and saved after the first fit, so repeated
// triage runs skip training entirely.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/detector.h"
#include "data/corpus.h"
#include "util/csv.h"

using namespace noodle;

namespace {

std::filesystem::path make_demo_directory() {
  const std::filesystem::path dir = "scan_demo";
  std::filesystem::create_directories(dir);
  data::CorpusSpec spec;
  spec.design_count = 12;
  spec.infected_fraction = 0.25;
  spec.seed = 911;
  for (const auto& circuit : data::build_corpus(spec)) {
    std::ofstream out(dir / (circuit.name + (circuit.infected ? ".infected.v" : ".v")));
    out << circuit.verilog;
  }
  std::cout << "wrote demo circuits to " << dir.string()
            << "/ (names marked .infected.v for checking the triage)\n\n";
  return dir;
}

struct ScanRow {
  std::string file;
  core::DetectionReport report;
};

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? std::filesystem::path(argv[1]) : make_demo_directory();
  if (!std::filesystem::is_directory(dir)) {
    std::cerr << "error: " << dir.string() << " is not a directory\n";
    return 1;
  }

  const std::filesystem::path snapshot = argc > 2 ? argv[2] : "";
  std::shared_ptr<const core::FittedModel> model;
  if (!snapshot.empty() && std::filesystem::exists(snapshot)) {
    std::cout << "loading detector snapshot " << snapshot.string() << "..." << std::flush;
    model = core::FittedModel::load(snapshot);
  } else {
    std::cout << "training detector..." << std::flush;
    core::DetectorConfig config;
    config.seed = 42;
    core::NoodleDetector detector(config);
    detector.fit_default();
    model = detector.fitted_model();
    if (!snapshot.empty()) model->save(snapshot);
  }
  std::cout << " done\n\n";

  std::vector<ScanRow> rows;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".v") continue;
    std::ifstream in(entry.path());
    const std::string source((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    try {
      rows.push_back({entry.path().filename().string(), model->scan_verilog(source)});
    } catch (const std::exception& e) {
      std::cerr << "skipping " << entry.path().filename().string() << ": " << e.what()
                << "\n";
    }
  }
  if (rows.empty()) {
    std::cerr << "no .v files found in " << dir.string() << "\n";
    return 1;
  }

  std::sort(rows.begin(), rows.end(), [](const ScanRow& a, const ScanRow& b) {
    return a.report.probability > b.report.probability;
  });

  std::cout << "P(TI)   region@90%   file\n";
  std::cout << "-----   ----------   ----\n";
  for (const auto& row : rows) {
    const char* region = row.report.region.is_uncertain() ? "{TF,TI}"
                         : row.report.region.is_empty()   ? "{}"
                         : (row.report.region.contains[1] ? "{TI}  " : "{TF}  ");
    std::cout << util::format_fixed(row.report.probability, 3) << "   " << region
              << "      " << row.file << "\n";
  }
  std::cout << "\ncircuits in uncertain regions deserve manual review before "
               "tape-out; the ordering above is the review queue.\n";
  return 0;
}
