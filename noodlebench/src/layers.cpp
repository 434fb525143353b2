#include "layers.h"

#include <atomic>
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <thread>

#include "core/detector.h"
#include "cp/icp.h"
#include "data/corpus.h"
#include "data/dataset.h"
#include "feat/featurize.h"
#include "feat/tabular.h"
#include "fusion/models.h"
#include "gan/augment.h"
#include "graph/builder.h"
#include "graph/features.h"
#include "graph/netgraph.h"
#include "lint/lint.h"
#include "net/protocol.h"
#include "serve/disk_cache.h"
#include "serve/service.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "verilog/lexer.h"
#include "verilog/parser.h"

namespace noodlebench {

namespace nd = noodle;

namespace {

double us_since(std::int64_t start) { return static_cast<double>(now_ns() - start) / 1e3; }

/// Rounds over the sample so even a small working set gives a few hundred
/// timed calls per stage.
std::size_t rounds_for(std::size_t n) { return std::max<std::size_t>(1, 2048 / std::max<std::size_t>(n, 1)); }

}  // namespace

void time_front_end(std::span<const std::string> sources, Metrics& m) {
  nd::verilog::ParserWorkspace parser;
  nd::graph::NetGraph graph(parser.symbols());
  nd::graph::BuildScratch build_scratch;
  nd::graph::FeatureScratch feature_scratch;
  nd::feat::TabularScratch tabular_scratch;
  nd::lint::LintWorkspace lint;
  nd::feat::FeaturizeWorkspace workspace;
  std::vector<nd::verilog::Token> tokens;
  std::vector<double> graph_out(nd::graph::kGraphFeatureDim);
  std::vector<double> tabular_out(nd::feat::kTabularFeatureDim);
  std::vector<double> spectrum(3);
  std::vector<double> lex, parse, build, sketch, features, tabular, lint_us, featurize;
  double stage_sum = 0.0, whole_sum = 0.0;
  for (std::size_t round = 0; round < rounds_for(sources.size()) + 1; ++round) {
    const bool timed = round > 0;  // round 0 warms every workspace
    for (const std::string& source : sources) {
      // The production path, timed before or after the separate stages on
      // alternate rounds so neither side always finds the source cached.
      double featurize_t = 0.0;
      const auto whole = [&] {
        const std::int64_t t = now_ns();
        workspace.featurize(source, graph_out, tabular_out);
        featurize_t = us_since(t);
      };
      if (round % 2 == 1) whole();
      std::int64_t t = now_ns();
      nd::verilog::lex_into(source, tokens);
      const double lex_t = us_since(t);
      t = now_ns();
      const nd::verilog::fast::Module& module = parser.parse_single(source);
      const double parse_t = us_since(t);
      t = now_ns();
      nd::graph::build_netgraph(module, graph, build_scratch);
      const double build_t = us_since(t);
      t = now_ns();
      graph.spectral_sketch(spectrum, nd::graph::NetGraph::kSpectralSketchIterations,
                            feature_scratch.analysis);
      const double sketch_t = us_since(t);
      t = now_ns();
      nd::graph::graph_features(graph, graph_out, feature_scratch);
      const double features_t = us_since(t);
      t = now_ns();
      nd::feat::tabular_features(module, tabular_out, tabular_scratch);
      const double tabular_t = us_since(t);
      t = now_ns();
      lint.run(module, graph, *parser.symbols());
      const double lint_t = us_since(t);
      if (round % 2 == 0) whole();
      if (!timed) continue;
      lex.push_back(lex_t);
      parse.push_back(parse_t);
      build.push_back(build_t);
      sketch.push_back(sketch_t);
      features.push_back(features_t);
      tabular.push_back(tabular_t);
      lint_us.push_back(lint_t);
      featurize.push_back(featurize_t);
      stage_sum += parse_t + build_t + features_t + tabular_t;
      whole_sum += featurize_t;
    }
  }
  m.set("verilog.lex_us", median(lex), "us");
  m.set("verilog.parse_us", median(parse), "us");
  m.set("graph.build_us", median(build), "us");
  m.set("graph.sketch_us", median(sketch), "us");
  m.set("graph.features_us", median(features), "us");
  m.set("feat.tabular_us", median(tabular), "us");
  m.set("feat.featurize_us", median(featurize), "us");
  m.set("feat.unattributed_share", whole_sum > 0 ? 1.0 - stage_sum / whole_sum : 0.0,
        "ratio");
  m.set("lint.run_us", median(lint_us), "us");
}

void time_core(const nd::core::FittedModel& model, std::span<const std::string> sources,
               Metrics& m) {
  nd::feat::FeaturizeWorkspace workspace;
  std::vector<nd::data::FeatureSample> samples;
  // At least 256 samples (cycling a small working set) so the thread
  // comparison has enough 16-sample chunks to spread.
  const std::size_t count = std::max<std::size_t>(256, sources.size());
  for (std::size_t i = 0; i < count; ++i) {
    samples.push_back(nd::data::featurize_source(sources[i % sources.size()], workspace));
  }
  constexpr std::size_t kBatch = 16;
  std::vector<double> per_design;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t begin = 0; begin + kBatch <= samples.size(); begin += kBatch) {
      const std::int64_t t = now_ns();
      model.scan_many(std::span(samples).subspan(begin, kBatch), 1);
      per_design.push_back(us_since(t) / kBatch);
    }
  }
  m.set("core.infer_us", median(per_design), "us");

  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one, many;
  for (std::size_t round = 0; round < 7; ++round) {
    std::int64_t t = now_ns();
    model.scan_many(samples, 1);
    one.push_back(us_since(t));
    t = now_ns();
    model.scan_many(samples, threads);
    many.push_back(us_since(t));
  }
  m.set("core.scan_many_speedup", median(one) / median(many), "x");
}

namespace {

struct FitPhases {
  double featurize_s = 0.0, gan_s = 0.0, early_s = 0.0, late_s = 0.0;
  std::uint64_t digest = 0;  ///< of the model the replay fitted
};

/// NoodleDetector::fit(corpus) step by step, each phase timed; `winner` is
/// the detector's own choice (the Brier comparison is not replayed).
FitPhases replay_fit(nd::core::DetectorConfig config,
                     const std::vector<nd::data::CircuitSample>& corpus,
                     const std::string& winner) {
  FitPhases phases;
  config.fusion.seed = config.seed + 13;  // as NoodleDetector's constructor sets it
  std::int64_t t = now_ns();
  nd::data::FeatureDataset dataset = nd::data::featurize_corpus(corpus);
  phases.featurize_s = us_since(t) / 1e6;
  if (config.use_gan) {
    nd::gan::GanConfig gan_config = config.gan;
    gan_config.seed = config.seed + 7;
    t = now_ns();
    dataset = nd::gan::augment_with_gan(dataset, config.gan_target_per_class, gan_config);
    phases.gan_s = us_since(t) / 1e6;
  }
  nd::util::Rng rng(config.seed);
  const nd::data::SplitIndices split = nd::data::stratified_split(
      dataset.labels(), config.train_fraction, 1.0 - config.train_fraction - 1e-9, rng);
  std::vector<std::size_t> cal_indices = split.cal;
  cal_indices.insert(cal_indices.end(), split.test.begin(), split.test.end());
  const nd::data::FeatureDataset train = nd::data::subset(dataset, split.train);
  const nd::data::FeatureDataset cal = nd::data::subset(dataset, cal_indices);

  nd::fusion::EarlyFusionModel early(config.fusion);
  t = now_ns();
  early.fit(train, cal);
  phases.early_s = us_since(t) / 1e6;
  nd::fusion::LateFusionModel late(config.fusion);
  t = now_ns();
  late.fit(train, cal);
  phases.late_s = us_since(t) / 1e6;
  phases.digest =
      nd::core::FittedModel(config, std::move(early), std::move(late), winner).content_digest();
  return phases;
}

}  // namespace

void time_fit(std::uint64_t daemon_digest, Metrics& m) {
  // noodled fits NoodleDetector(DetectorConfig{}).fit_default() with its
  // default --seed, the config's. Each round times that whole call, then
  // replays its phases one by one; the minimum over rounds is reported, so
  // host noise between the two does not read as unattributed time. The
  // replayed model must hash like the detector's and the daemon's
  // snapshot: a change to NoodleDetector::fit that the replay does not
  // follow is reported, and fit.unattributed_share shows the time the
  // phases do not account for.
  constexpr int kRounds = 2;
  const nd::core::DetectorConfig config;
  nd::data::CorpusSpec spec;  // fit_default()'s corpus
  spec.design_count = 240;
  spec.infected_fraction = 0.3;
  spec.seed = config.seed;
  const std::vector<nd::data::CircuitSample> corpus = nd::data::build_corpus(spec);
  double total_s = 1e300;
  FitPhases best{1e300, 1e300, 1e300, 1e300, 0};
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t = now_ns();
    nd::core::NoodleDetector detector(config);
    detector.fit_default();
    total_s = std::min(total_s, us_since(t) / 1e6);
    const std::shared_ptr<const nd::core::FittedModel> fitted = detector.fitted_model();
    const FitPhases phases = replay_fit(config, corpus, fitted->winning_fusion());
    if (phases.digest != fitted->content_digest() || fitted->content_digest() != daemon_digest) {
      std::cerr << "nbtool: WARNING fit phases no longer replay NoodleDetector::fit (digests "
                << phases.digest << " replayed, " << fitted->content_digest() << " detector, "
                << daemon_digest << " daemon); fit.* times may not be its\n";
    }
    best.featurize_s = std::min(best.featurize_s, phases.featurize_s);
    best.gan_s = std::min(best.gan_s, phases.gan_s);
    best.early_s = std::min(best.early_s, phases.early_s);
    best.late_s = std::min(best.late_s, phases.late_s);
  }
  m.set("fit.featurize_s", best.featurize_s, "s");
  m.set("fit.gan_s", best.gan_s, "s");
  m.set("fit.early_s", best.early_s, "s");
  m.set("fit.late_s", best.late_s, "s");
  m.set("fit.total_s", total_s, "s");
  m.set("fit.unattributed_share",
        1.0 - (best.featurize_s + best.gan_s + best.early_s + best.late_s) / total_s,
        "ratio");
}

void time_protocol(const nd::core::FittedModel& model,
                   std::span<const std::string> sources, Metrics& m) {
  std::vector<std::string> lines;
  for (const std::string& source : sources) lines.push_back("~inline " + source);
  std::vector<nd::core::DetectionReport> reports = model.scan_verilog_many(sources, 0);
  for (nd::core::DetectionReport& report : reports) report.served_by = "default@1";
  const auto no_models = [](const std::string&) { return false; };
  std::size_t bytes = 0;
  std::vector<double> parse_ns, verdict_ns;
  for (std::size_t round = 0; round < 5; ++round) {
    std::int64_t t = now_ns();
    for (std::size_t r = 0; r < rounds_for(lines.size()); ++r) {
      for (const std::string& line : lines) {
        bytes += nd::net::protocol::parse_request_line(line, no_models).body.size();
      }
    }
    parse_ns.push_back(static_cast<double>(now_ns() - t) /
                       static_cast<double>(rounds_for(lines.size()) * lines.size()));
    t = now_ns();
    for (std::size_t r = 0; r < rounds_for(reports.size()); ++r) {
      for (const nd::core::DetectionReport& report : reports) {
        bytes += nd::net::protocol::verdict_line(report, nd::net::protocol::kInlineEcho,
                                                 false)
                     .size();
      }
    }
    verdict_ns.push_back(static_cast<double>(now_ns() - t) /
                         static_cast<double>(rounds_for(reports.size()) * reports.size()));
  }
  if (bytes == 0) throw std::logic_error("protocol timing produced nothing");
  m.set("net.parse_line_ns", median(parse_ns), "ns");
  m.set("net.verdict_line_ns", median(verdict_ns), "ns");
}

void time_snapshot_load(const std::filesystem::path& snapshot, Metrics& m) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t = now_ns();
    const auto model = nd::core::FittedModel::load(snapshot);
    ms.push_back(us_since(t) / 1e3);
  }
  m.set("serve.snapshot_load_ms", median(ms), "ms");
}

void time_disk_tier(const nd::core::FittedModel& model,
                    const std::filesystem::path& directory,
                    std::span<const std::string> sources, bool populate, Metrics& m) {
  using Cache = nd::serve::PersistentVerdictCache;
  nd::serve::DiskCacheConfig config;
  config.directory = directory;
  std::vector<nd::core::DetectionReport> reports = model.scan_verilog_many(sources, 0);
  const auto key_of = [&](const std::string& source) {
    return Cache::Key{nd::feat::kFeatureVersion, model.content_digest(),
                      nd::util::fnv1a64(source)};
  };
  double flush_ms = 0.0;
  const auto drop_ratio = [](const nd::serve::DiskCacheStats& stats) {
    const double attempts = static_cast<double>(stats.stores + stats.drops);
    return attempts > 0 ? static_cast<double>(stats.drops) / attempts : 0.0;
  };
  double drops = 0.0;
  if (populate) {
    // Store every source (fewer than the writer queue holds) and time until
    // all of them are durable.
    std::filesystem::remove_all(directory);
    Cache cache(config);
    const std::int64_t t = now_ns();
    for (std::size_t i = 0; i < sources.size(); ++i) {
      cache.store(key_of(sources[i]), sources[i], reports[i]);
    }
    cache.flush();
    flush_ms = us_since(t) / 1e3;
    drops = drop_ratio(cache.stats());
  }
  std::int64_t t = now_ns();
  Cache cache(config);
  m.set("serve.disk_startup_ms", us_since(t) / 1e3, "ms");
  std::vector<double> lookup_us;
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    nd::core::DetectionReport out;
    t = now_ns();
    const bool hit = cache.lookup(key_of(sources[i]), sources[i], out);
    lookup_us.push_back(us_since(t));
    if (!hit) misses.push_back(i);
  }
  m.set("serve.disk_lookup_us", median(lookup_us), "us");
  if (!populate) {
    for (const std::size_t i : misses) cache.store(key_of(sources[i]), sources[i], reports[i]);
    t = now_ns();
    cache.flush();
    flush_ms = us_since(t) / 1e3;
    drops = drop_ratio(cache.stats());
  }
  m.set("serve.disk_flush_ms", flush_ms, "ms");
  m.set("serve.disk_drop_ratio", drops, "ratio");
}

ReplayResult replay_inproc(const std::filesystem::path& snapshot,
                           const std::filesystem::path& disk_dir, std::size_t workers,
                           const std::vector<std::string>& warm,
                           const std::vector<std::int64_t>& schedule,
                           const std::vector<const std::string*>& sources,
                           std::size_t window) {
  // Completion state first: it must outlive the service, whose destructor
  // drains (and so may still run) completion callbacks.
  const std::size_t n = sources.size();
  std::vector<std::int64_t> due(n, 0), done(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;
  const auto finish = [&](std::size_t i) {
    done[i] = now_ns();
    std::lock_guard<std::mutex> lock(mu);
    ++completed;
    cv.notify_all();
  };
  nd::serve::ServiceConfig config;  // noodled's defaults: batch 16, cache 4096
  config.workers = workers;
  config.disk_cache.directory = disk_dir;
  nd::serve::DetectionService service(snapshot, config);
  for (const std::string& source : warm) service.submit(source).get();

  const std::int64_t start = now_ns() + 5'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    if (window > 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return i - completed < window; });
      due[i] = now_ns();
    } else {
      due[i] = start + schedule[i];
      while (now_ns() < due[i]) {
        // Spin, like the TCP generator: a sleeping thread wakes up late.
      }
    }
    service.submit_async(*sources[i], {},
                         [&finish, i](std::future<nd::core::DetectionReport> f) {
                           try {
                             f.get();
                           } catch (const std::exception&) {
                             // A failed request still completes; the TCP run
                             // is where verdicts are checked.
                           }
                           finish(i);
                         });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == n; });
  }
  ReplayResult result;
  for (std::size_t i = 0; i < n; ++i) {
    result.latency_ms.push_back(static_cast<double>(done[i] - due[i]) / 1e6);
  }
  // Every source is now cached: time the hit path of submit_async itself.
  std::vector<double> hit_us;
  const std::size_t probes = std::min<std::size_t>(n, 256);
  for (std::size_t round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < probes; ++i) {
      const std::int64_t t = now_ns();
      service.submit_async(*sources[i], {}, [](std::future<nd::core::DetectionReport>) {});
      hit_us.push_back(us_since(t));
    }
  }
  result.submit_hit_us = median(hit_us);
  return result;
}

}  // namespace noodlebench
