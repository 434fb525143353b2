// Fig. 2 — Brier score distribution with mean interval, early (a) vs late
// (b) fusion. The paper shows the spread of the Brier score across runs;
// we resample the whole experiment over independent seeds/splits and render
// the distribution as box plots with the mean +/- 95% CI.

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "bench_common.h"
#include "util/ascii_plot.h"
#include "util/stats.h"

using namespace noodle;

namespace {

/// argv[1] is the number of seeds (default 12). Anything but a positive
/// integer prints usage and exits 2.
std::size_t parse_runs(int argc, char** argv) {
  if (argc < 2) return 12;
  const std::string_view arg = argv[1];
  std::size_t runs = 0;
  const auto [end, error] = std::from_chars(arg.data(), arg.data() + arg.size(), runs);
  if (error != std::errc{} || end != arg.data() + arg.size() || runs == 0) {
    std::cerr << "usage: " << argv[0] << " [RUNS]\n"
              << "  RUNS: positive number of seeds to resample (default 12)\n";
    std::exit(2);
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = parse_runs(argc, argv);
  bench::banner("Fig. 2: Brier score distribution with mean interval (" +
                std::to_string(runs) + " runs)");

  std::vector<core::ExperimentConfig> configs;
  for (std::size_t run = 0; run < runs; ++run) {
    core::ExperimentConfig config = bench::paper_config();
    config.seed = run + 1;
    configs.push_back(config);
  }
  const std::vector<core::ExperimentResult> results = bench::run_sweep(configs);

  std::vector<double> graph, tabular, early, late;
  util::CsvTable csv;
  csv.header = {"seed", "graph", "tabular", "early_fusion", "late_fusion", "winner"};
  for (std::size_t run = 0; run < runs; ++run) {
    const core::ExperimentResult& result = results[run];
    graph.push_back(result.graph_only.brier);
    tabular.push_back(result.tabular_only.brier);
    early.push_back(result.early_fusion.brier);
    late.push_back(result.late_fusion.brier);
    csv.rows.push_back({std::to_string(configs[run].seed),
                        util::format_fixed(result.graph_only.brier, 4),
                        util::format_fixed(result.tabular_only.brier, 4),
                        util::format_fixed(result.early_fusion.brier, 4),
                        util::format_fixed(result.late_fusion.brier, 4),
                        result.winner});
  }
  std::cout << "\n";

  const std::vector<std::string> labels = {"(a) early fusion", "(b) late fusion",
                                           "graph only", "tabular only"};
  const std::vector<std::vector<double>> samples = {early, late, graph, tabular};
  std::cout << util::ascii_box_plot(labels, samples, 56) << "\n";

  const util::Summary se = util::summarize(early);
  const util::Summary sl = util::summarize(late);
  std::cout << "early fusion: mean " << util::format_fixed(se.mean, 4) << " +/- "
            << util::format_fixed(se.ci95_half_width, 4) << " (95% CI), paper 0.1685\n";
  std::cout << "late fusion:  mean " << util::format_fixed(sl.mean, 4) << " +/- "
            << util::format_fixed(sl.ci95_half_width, 4) << " (95% CI), paper 0.1589\n";

  std::size_t late_wins = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    if (late[i] <= early[i]) ++late_wins;
  }
  std::cout << "late fusion wins " << late_wins << "/" << runs
            << " runs (paper: neither fusion deterministically superior; "
               "Algorithm 2 picks per-run winner)\n";

  bench::write_table("fig2_brier_distribution", csv);
  return 0;
}
