// P1-P3 — throughput micro-benchmarks (google-benchmark) for the pipeline
// stages: Verilog parsing, graph/tabular feature extraction, CNN inference,
// and Mondrian ICP p-value computation — plus P4, the batch subsystem's
// scaling benchmarks: the experiment sweep runner and detector batch scans
// at 1/2/4 worker threads, and P5, the serving subsystem: snapshot
// save/load round trips and DetectionService request throughput with and
// without the verdict cache. Wall-clock (real time) is the metric that
// matters there; every thread count must produce bit-identical results, and
// the benchmark aborts if it does not.

#include <benchmark/benchmark.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "net/event_loop.h"
#include "net/server.h"
#include "net/socket.h"

#include "core/batch.h"
#include "core/detector.h"
#include "cp/icp.h"
#include "data/corpus.h"
#include "data/dataset.h"
#include "feat/featurize.h"
#include "feat/tabular.h"
#include "graph/builder.h"
#include "graph/features.h"
#include "lint/lint.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "verilog/lexer.h"
#include "verilog/parser.h"

namespace {

using namespace noodle;

const std::vector<data::CircuitSample>& corpus() {
  static const auto circuits = [] {
    data::CorpusSpec spec;
    spec.design_count = 48;
    spec.infected_fraction = 0.3;
    spec.seed = 7;
    return data::build_corpus(spec);
  }();
  return circuits;
}

/// The corpus parsed on the production arena path, one ParserWorkspace per
/// design so every arena module stays live, with each design's NetGraph
/// built over its parser's intern pool: the inputs
/// feat::FeaturizeWorkspace::featurize hands each layer. The layer benches
/// below time exactly the calls featurize makes, so their medians decompose
/// BM_FeaturizeWorkspace.
struct ParsedCorpus {
  std::vector<std::unique_ptr<verilog::ParserWorkspace>> parsers;
  std::vector<const verilog::fast::Module*> modules;
  std::vector<graph::NetGraph> graphs;
};

const ParsedCorpus& parsed_corpus() {
  static const auto parsed = [] {
    ParsedCorpus out;
    graph::BuildScratch scratch;
    for (const auto& circuit : corpus()) {
      auto& parser = out.parsers.emplace_back(std::make_unique<verilog::ParserWorkspace>());
      out.modules.push_back(&parser->parse_single(circuit.verilog));
      graph::build_netgraph(*out.modules.back(), out.graphs.emplace_back(parser->symbols()),
                            scratch);
    }
    return out;
  }();
  return parsed;
}

/// Reference features via the classic owning pipeline, for the in-bench
/// identity checks below (the arena path must reproduce them bit for bit).
const std::vector<std::pair<std::vector<double>, std::vector<double>>>&
reference_features() {
  static const auto reference = [] {
    std::vector<std::pair<std::vector<double>, std::vector<double>>> out;
    for (const auto& circuit : corpus()) {
      const verilog::Module module = verilog::parse_module(circuit.verilog);
      out.emplace_back(graph::graph_features(graph::build_netgraph(module)),
                       feat::tabular_features(module));
    }
    return out;
  }();
  return reference;
}

void BM_ParseVerilog(benchmark::State& state) {
  // Lex + arena parse through a reused workspace, as featurize runs it.
  const auto& circuits = corpus();
  verilog::ParserWorkspace parser;
  std::size_t i = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto& circuit = circuits[i++ % circuits.size()];
    benchmark::DoNotOptimize(&parser.parse_single(circuit.verilog));
    bytes += circuit.verilog.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ParseVerilog);

void BM_BuildNetGraph(benchmark::State& state) {
  const ParsedCorpus& parsed = parsed_corpus();
  std::vector<graph::NetGraph> graphs;
  for (const auto& parser : parsed.parsers) graphs.emplace_back(parser->symbols());
  graph::BuildScratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i++ % graphs.size();
    graph::build_netgraph(*parsed.modules[at], graphs[at], scratch);
    benchmark::DoNotOptimize(graphs[at].node_count());
  }
}
BENCHMARK(BM_BuildNetGraph);

void BM_GraphFeatures(benchmark::State& state) {
  const ParsedCorpus& parsed = parsed_corpus();
  const auto& reference = reference_features();
  graph::FeatureScratch scratch;
  std::vector<double> out(graph::kGraphFeatureDim);
  for (std::size_t at = 0; at < parsed.graphs.size(); ++at) {
    graph::graph_features(parsed.graphs[at], out, scratch);
    if (out != reference[at].first) {
      state.SkipWithError("graph features diverged from the owning reference path");
      return;
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    graph::graph_features(parsed.graphs[i++ % parsed.graphs.size()], out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GraphFeatures);

void BM_SpectralSketch(benchmark::State& state) {
  // Isolates the blocked CSR subspace-iteration sketch (PR 8) from the rest
  // of graph_features, at the production pass budget featurization uses. The
  // expected values are pinned once up front and every timed call is checked
  // against them, so a dispatch or convergence regression aborts the
  // benchmark instead of publishing a bogus number.
  std::vector<graph::NetGraph> graphs;
  std::vector<std::vector<double>> expected;
  for (const auto& circuit : corpus()) {
    graphs.push_back(graph::build_netgraph(verilog::parse_module(circuit.verilog)));
    expected.push_back(graphs.back().spectral_sketch(3));
  }
  graph::AnalysisScratch scratch;
  std::array<double, 3> sketch{};
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i++ % graphs.size();
    graphs[at].spectral_sketch(sketch, graph::NetGraph::kSpectralSketchIterations,
                               scratch);
    benchmark::DoNotOptimize(sketch);
    if (!std::equal(sketch.begin(), sketch.end(), expected[at].begin())) {
      state.SkipWithError("spectral sketch deviated from the pinned values");
      break;
    }
  }
}
BENCHMARK(BM_SpectralSketch);

void BM_TabularFeatures(benchmark::State& state) {
  const ParsedCorpus& parsed = parsed_corpus();
  const auto& reference = reference_features();
  feat::TabularScratch scratch;
  std::vector<double> out(feat::kTabularFeatureDim);
  for (std::size_t at = 0; at < parsed.modules.size(); ++at) {
    feat::tabular_features(*parsed.modules[at], out, scratch);
    if (out != reference[at].second) {
      state.SkipWithError("tabular features diverged from the owning reference path");
      return;
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    feat::tabular_features(*parsed.modules[i++ % parsed.modules.size()], out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TabularFeatures);

void BM_Lex(benchmark::State& state) {
  // Zero-copy lexing into a reused token buffer (the front of every parse).
  const auto& circuits = corpus();
  std::vector<verilog::Token> tokens;
  std::size_t i = 0;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto& circuit = circuits[i++ % circuits.size()];
    verilog::lex_into(circuit.verilog, tokens);
    benchmark::DoNotOptimize(tokens.data());
    bytes += circuit.verilog.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Lex);

void BM_Featurize(benchmark::State& state) {
  // The full front end through data::featurize (thread-local workspace
  // underneath); was BM_FullFeaturize before PR 5. Aborts on any deviation
  // from the owning reference pipeline.
  const auto& circuits = corpus();
  const auto& reference = reference_features();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i++ % circuits.size();
    const data::FeatureSample sample = data::featurize(circuits[at]);
    benchmark::DoNotOptimize(sample);
    if (sample.graph != reference[at].first || sample.tabular != reference[at].second) {
      state.SkipWithError("featurize diverged from the owning reference path");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Featurize);

void BM_FeaturizeWorkspace(benchmark::State& state) {
  // Explicit workspace with reused output vectors: the zero-allocation
  // steady state (asserted in tests/test_featurize_engine.cpp).
  const auto& circuits = corpus();
  const auto& reference = reference_features();
  feat::FeaturizeWorkspace workspace;
  std::vector<double> graph_out, tabular_out;
  workspace.featurize(circuits[0].verilog, graph_out, tabular_out);  // warm-up
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i++ % circuits.size();
    workspace.featurize(circuits[at].verilog, graph_out, tabular_out);
    benchmark::DoNotOptimize(graph_out.data());
    benchmark::DoNotOptimize(tabular_out.data());
    if (graph_out != reference[at].first || tabular_out != reference[at].second) {
      state.SkipWithError("workspace featurize diverged from the reference path");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FeaturizeWorkspace);

void BM_Lint(benchmark::State& state) {
  // Per-circuit cost of the static-analysis pass over the 48-circuit
  // corpus, measured on warm workspaces the way the service runs it:
  // parse + graph via FeaturizeWorkspace, then LintWorkspace::run on the
  // resident arena AST (allocation-free at steady state).
  const auto& circuits = corpus();
  feat::FeaturizeWorkspace workspace;
  lint::LintWorkspace lint_workspace;
  std::vector<double> graph_out, tabular_out;
  workspace.featurize(circuits[0].verilog, graph_out, tabular_out);  // warm-up
  std::size_t i = 0;
  std::size_t findings = 0;
  for (auto _ : state) {
    const auto& circuit = circuits[i++ % circuits.size()];
    workspace.featurize(circuit.verilog, graph_out, tabular_out);
    const auto span = lint_workspace.run(*workspace.last_module(),
                                         workspace.last_graph(),
                                         workspace.last_graph().symbols());
    findings += span.size();
    benchmark::DoNotOptimize(span.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["findings_per_circuit"] =
      benchmark::Counter(static_cast<double>(findings),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Lint);

void BM_CnnForward(benchmark::State& state) {
  util::Rng rng(3);
  nn::Sequential model = nn::make_cnn(40, rng);
  nn::Matrix batch(static_cast<std::size_t>(state.range(0)), 40);
  for (double& v : batch.data()) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(batch, false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CnnForward)->Arg(1)->Arg(16)->Arg(128);

void BM_CnnInferWorkspace(benchmark::State& state) {
  // The allocation-free engine path: same math as BM_CnnForward (results
  // are bit-identical, asserted below), but zero heap allocations per batch
  // once the workspace is warm.
  util::Rng rng(3);
  const nn::Sequential model = nn::make_cnn(40, rng);
  nn::Matrix batch(static_cast<std::size_t>(state.range(0)), 40);
  for (double& v : batch.data()) v = rng.normal();
  nn::InferenceWorkspace ws;
  model.reserve_workspace(ws, batch.rows(), batch.cols());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.infer(batch, ws));
  }
  if (model.infer(batch, ws).data() != model.infer(batch).data()) {
    state.SkipWithError("workspace inference diverged from the allocating path");
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CnnInferWorkspace)->Arg(1)->Arg(16)->Arg(128);

void BM_CnnTrainEpoch(benchmark::State& state) {
  util::Rng rng(5);
  nn::Matrix x(128, 40);
  for (double& v : x.data()) v = rng.normal();
  std::vector<int> y;
  for (int i = 0; i < 128; ++i) y.push_back(rng.bernoulli(0.3) ? 1 : 0);
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng init(7);
    nn::Sequential model = nn::make_cnn(40, init);
    nn::TrainConfig config;
    config.epochs = 1;
    config.validation_fraction = 0.0;
    state.ResumeTiming();
    benchmark::DoNotOptimize(nn::train_binary_classifier(model, x, y, config));
  }
}
BENCHMARK(BM_CnnTrainEpoch);

void BM_IcpPValues(benchmark::State& state) {
  util::Rng rng(9);
  std::vector<double> probs;
  std::vector<int> labels;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    labels.push_back(rng.bernoulli(0.3) ? 1 : 0);
    probs.push_back(std::clamp((labels.back() ? 0.7 : 0.3) + rng.normal(0.0, 0.15),
                               0.01, 0.99));
  }
  cp::MondrianIcp icp;
  icp.calibrate(probs, labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(icp.p_values(rng.uniform()));
  }
  state.SetLabel("cal_size=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_IcpPValues)->Arg(100)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// P4 — batch subsystem scaling
// ---------------------------------------------------------------------------

core::ExperimentConfig sweep_point(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.seed = seed;
  config.corpus.design_count = 72;
  config.corpus.infected_fraction = 0.35;
  config.gan_target_per_class = 40;
  config.gan.epochs = 30;
  config.fusion.train.epochs = 12;
  config.fusion.train.validation_fraction = 0.0;
  return config;
}

const std::vector<core::ExperimentConfig>& sweep_configs() {
  static const auto configs = [] {
    std::vector<core::ExperimentConfig> points;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) points.push_back(sweep_point(seed));
    return points;
  }();
  return configs;
}

/// Serial (1-thread) reference results, computed once; every parallel run
/// must reproduce these bit-for-bit.
const std::vector<core::ExperimentResult>& sweep_reference() {
  static const auto reference = [] {
    core::SweepOptions options;
    options.threads = 1;
    return core::run_experiment_sweep(sweep_configs(), options);
  }();
  return reference;
}

bool identical_results(const std::vector<core::ExperimentResult>& a,
                       const std::vector<core::ExperimentResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t arm = 0; arm < 4; ++arm) {
      const core::ArmResult& x = *a[i].arms()[arm];
      const core::ArmResult& y = *b[i].arms()[arm];
      if (x.probabilities != y.probabilities || x.p_values != y.p_values ||
          x.brier != y.brier) {
        return false;
      }
    }
    if (a[i].winner != b[i].winner) return false;
  }
  return true;
}

void BM_ExperimentSweep(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto& reference = sweep_reference();  // built outside the timed loop
  core::SweepOptions options;
  options.threads = threads;
  for (auto _ : state) {
    const auto results = core::run_experiment_sweep(sweep_configs(), options);
    benchmark::DoNotOptimize(results);
    if (!identical_results(results, reference)) {
      state.SkipWithError("sweep results diverged from the 1-thread reference");
      break;
    }
  }
  state.SetLabel("threads=" + std::to_string(threads) + " sweep_points=" +
                 std::to_string(sweep_configs().size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep_configs().size()));
}
BENCHMARK(BM_ExperimentSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

const std::shared_ptr<const core::FittedModel>& fitted_detector() {
  static const auto model = [] {
    core::DetectorConfig config;
    config.seed = 3;
    config.gan_target_per_class = 40;
    config.gan.epochs = 30;
    config.fusion.train.epochs = 12;
    config.fusion.train.validation_fraction = 0.0;
    core::NoodleDetector d(config);
    data::CorpusSpec spec;
    spec.design_count = 96;
    spec.infected_fraction = 0.35;
    spec.seed = 3;
    d.fit(data::build_corpus(spec));
    return d.fitted_model();
  }();
  return model;
}

const std::vector<data::FeatureSample>& scan_samples() {
  static const auto samples = [] {
    std::vector<data::FeatureSample> featurized;
    for (const auto& circuit : corpus()) featurized.push_back(data::featurize(circuit));
    return featurized;
  }();
  return samples;
}

bool identical_reports(const std::vector<core::DetectionReport>& a,
                       const std::vector<core::DetectionReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].predicted_label != b[i].predicted_label ||
        a[i].probability != b[i].probability || a[i].p_values != b[i].p_values) {
      return false;
    }
  }
  return true;
}

/// Serial (1-thread) reference scans, computed once.
const std::vector<core::DetectionReport>& scan_reference() {
  static const auto reference = fitted_detector()->scan_many(scan_samples(), 1);
  return reference;
}

void BM_ScanMany(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const core::FittedModel& model = *fitted_detector();
  const auto& samples = scan_samples();
  const auto& reference = scan_reference();  // built outside the timed loop
  for (auto _ : state) {
    const auto reports = model.scan_many(samples, threads);
    benchmark::DoNotOptimize(reports);
    if (!identical_reports(reports, reference)) {
      state.SkipWithError("scan reports diverged from the 1-thread reference");
      break;
    }
  }
  state.SetLabel("threads=" + std::to_string(threads));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_ScanMany)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// P5 — serving subsystem: snapshot persistence and service throughput
// ---------------------------------------------------------------------------

void BM_SnapshotSaveLoad(benchmark::State& state) {
  const auto precision = state.range(0) == 2   ? nn::WeightPrecision::I8
                         : state.range(0) == 1 ? nn::WeightPrecision::F32
                                               : nn::WeightPrecision::F64;
  const bool f32 = precision == nn::WeightPrecision::F32;
  const bool i8 = precision == nn::WeightPrecision::I8;
  const core::FittedModel& model = *fitted_detector();
  const auto path = std::filesystem::temp_directory_path() / "noodle_bench.snap";
  const core::DetectionReport reference = model.scan_features(scan_samples()[0]);
  std::uintmax_t snapshot_bytes = 0;
  for (auto _ : state) {
    model.save(path, precision);
    const std::shared_ptr<const core::FittedModel> loaded = core::FittedModel::load(path);
    benchmark::DoNotOptimize(loaded);
    state.PauseTiming();
    snapshot_bytes = std::filesystem::file_size(path);
    const core::DetectionReport check = loaded->scan_features(scan_samples()[0]);
    // F64 round-trips bit-exactly; F32 rounds each weight, so the verdict
    // only has to stay label-identical and probability-close; I8 is coarser
    // still, so the bar is the label plus a wide probability neighborhood.
    const double probability_tol = i8 ? 0.1 : 5e-3;
    const bool diverged =
        (f32 || i8) ? check.predicted_label != reference.predicted_label ||
                          std::abs(check.probability - reference.probability) >
                              probability_tol
                    : check.probability != reference.probability ||
                          check.p_values != reference.p_values;
    if (diverged) {
      state.SkipWithError("loaded detector diverged from the fitted original");
      break;  // no ResumeTiming after SkipWithError (library precondition)
    }
    state.ResumeTiming();
  }
  std::filesystem::remove(path);
  state.SetLabel(std::string(i8 ? "i8" : f32 ? "f32" : "f64") +
                 " snapshot_bytes=" + std::to_string(snapshot_bytes));
}
BENCHMARK(BM_SnapshotSaveLoad)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// P6 — multi-model registry: resolve fast paths and atomic hot reload
// ---------------------------------------------------------------------------

void BM_RegistryResolve(benchmark::State& state) {
  const bool via_view = state.range(0) != 0;
  serve::ModelRegistry registry;
  registry.publish("prod", fitted_detector());
  registry.publish("canary", fitted_detector());
  const serve::ModelRegistry::LatestView view = registry.latest_view("prod");
  for (auto _ : state) {
    if (via_view) {
      benchmark::DoNotOptimize(view.get());  // the scan fast path: one atomic load
    } else {
      benchmark::DoNotOptimize(registry.resolve("prod"));  // name lookup + atomic load
    }
  }
  state.SetLabel(via_view ? "latest_view" : "resolve_by_name");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryResolve)->Arg(0)->Arg(1);

void BM_HotReload(benchmark::State& state) {
  // One reload = snapshot read + full validation + arm rebuild + atomic
  // publish — the latency floor for a zero-downtime model upgrade.
  const auto path = std::filesystem::temp_directory_path() / "noodle_bench_reload.snap";
  fitted_detector()->save(path);
  const core::DetectionReport reference = fitted_detector()->scan_features(scan_samples()[0]);
  serve::ModelRegistry registry;
  registry.reload_from("prod", path);
  for (auto _ : state) {
    const serve::ModelHandle handle = registry.reload_from("prod", path);
    benchmark::DoNotOptimize(handle);
    state.PauseTiming();
    registry.retire("prod", handle->version() - 1);  // keep the catalog flat
    state.ResumeTiming();
  }
  const core::DetectionReport check =
      registry.resolve("prod")->model().scan_features(scan_samples()[0]);
  if (check.probability != reference.probability ||
      check.p_values != reference.p_values) {
    state.SkipWithError("reloaded generation diverged from the fitted original");
  }
  std::filesystem::remove(path);
  state.SetLabel("live_generations=" + std::to_string(registry.size()));
}
BENCHMARK(BM_HotReload)->Unit(benchmark::kMillisecond);

void BM_ServiceThroughput(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const auto path = std::filesystem::temp_directory_path() / "noodle_bench_svc.snap";
  fitted_detector()->save(path);
  serve::ServiceConfig config;
  config.max_batch = 16;
  config.cache_capacity = cached ? 4096 : 0;
  config.workers = 2;
  serve::DetectionService service(path, config);
  std::filesystem::remove(path);

  const auto& circuits = corpus();
  const auto& reference = scan_reference();  // sequential scans of the same samples
  for (auto _ : state) {
    std::vector<std::future<core::DetectionReport>> futures;
    futures.reserve(circuits.size());
    for (const auto& circuit : circuits) futures.push_back(service.submit(circuit.verilog));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const core::DetectionReport report = futures[i].get();
      if (report.probability != reference[i].probability ||
          report.p_values != reference[i].p_values) {
        state.SkipWithError("service verdict diverged from direct scans");
        break;
      }
    }
  }
  const serve::ServiceStats stats = service.stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(circuits.size()));
  state.SetLabel(std::string(cached ? "cache=on" : "cache=off") +
                 " hit_rate=" + std::to_string(stats.cache_hit_rate()).substr(0, 4) +
                 " avg_batch=" + std::to_string(stats.average_batch_size()).substr(0, 4));
}
BENCHMARK(BM_ServiceThroughput)->Arg(0)->Arg(1)->UseRealTime()->Unit(benchmark::kMillisecond);

// One full TCP round trip over loopback: request line in, verdict line out,
// through the epoll loop, admission control, the dispatcher hand-off, and
// the FIFO write path. After the first iteration the verdict cache is hot,
// so this measures transport + protocol overhead, not inference.

void BM_NetRoundTrip(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() / "noodle_bench_net.snap";
  fitted_detector()->save(path);
  serve::DetectionService service(path, serve::ServiceConfig{});
  std::filesystem::remove(path);

  net::EventLoop loop;
  net::ScanServer server(loop, service, net::ServerConfig{});
  server.start();
  std::thread loop_thread([&] { loop.run(); });

  std::error_code ec;
  net::Fd client = net::connect_tcp("127.0.0.1", server.port(), ec);
  const std::string request =
      "~inline module bench_net(input a, input b, output y);"
      " assign y = a & b; endmodule\n";
  std::string acc;
  char buf[4096];
  for (auto _ : state) {
    if (!client) {
      state.SkipWithError("connect failed");
      break;
    }
    std::size_t off = 0;
    while (off < request.size()) {
      const ssize_t put = ::send(client.get(), request.data() + off,
                                 request.size() - off, MSG_NOSIGNAL);
      if (put < 0) {
        state.SkipWithError("send failed");
        break;
      }
      off += static_cast<std::size_t>(put);
    }
    while (acc.find('\n') == std::string::npos) {
      const ssize_t got = ::recv(client.get(), buf, sizeof buf, 0);
      if (got <= 0) {
        state.SkipWithError("recv failed");
        break;
      }
      acc.append(buf, static_cast<std::size_t>(got));
    }
    acc.clear();
  }
  client = net::Fd();
  loop.stop();
  loop_thread.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetRoundTrip)->UseRealTime()->Unit(benchmark::kMicrosecond);

// --- P6: observability ------------------------------------------------------
// The warm instrumentation path a request pays per stage: one histogram
// record plus a counter bump. This is the number that proves the metrics
// layer is cheap enough to leave on (tens of nanoseconds against a
// millisecond-scale scan).

void BM_MetricsRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist =
      registry.histogram("noodle_stage_duration_seconds", "bench", {{"stage", "infer"}});
  obs::Counter& counter =
      registry.counter("noodle_cache_probes_total", "bench", {{"outcome", "hit"}});
  std::uint64_t nanos = 100;
  for (auto _ : state) {
    hist.record(nanos);
    counter.inc();
    nanos = nanos * 3 % 10'000'000'000ULL;  // walk across the bucket range
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsRecord);

// The read side: merging every shard of a populated histogram into a
// Snapshot, as render_prometheus()/metrics_snapshot() do per scrape. Scrape
// cost scales with (families x buckets), not with traffic.

void BM_HistogramMerge(benchmark::State& state) {
  obs::Histogram hist;
  std::uint64_t nanos = 137;
  for (std::size_t i = 0; i < 100'000; ++i) {
    hist.record(nanos);
    nanos = nanos * 3 % 10'000'000'000ULL;
  }
  for (auto _ : state) {
    const obs::Histogram::Snapshot snap = hist.snapshot();
    benchmark::DoNotOptimize(snap.count);
    benchmark::DoNotOptimize(snap.quantile_nanos(0.99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramMerge);

}  // namespace

BENCHMARK_MAIN();
