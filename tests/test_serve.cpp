// Tests for the serving subsystem: binary-IO primitives, the snapshot
// archive format, FittedModel save/load round-trip bit-identity, the
// archive's corruption defenses, and DetectionService batching/caching
// returning verdicts identical to direct sequential scans.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <vector>

#include "core/detector.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"

namespace noodle {
namespace {

// --- binary-IO primitives --------------------------------------------------

TEST(BinaryIo, RoundTripsScalarsBitExactly) {
  std::ostringstream os;
  util::write_u8(os, 0xab);
  util::write_u32(os, 0xdeadbeefu);
  util::write_u64(os, 0x0123456789abcdefULL);
  util::write_f64(os, -0.1);
  util::write_f64(os, 0.0);
  util::write_string(os, "noodle");
  util::write_f64_vector(os, {1.5, -2.25, 1e-300});

  std::istringstream is(os.str());
  EXPECT_EQ(util::read_u8(is), 0xab);
  EXPECT_EQ(util::read_u32(is), 0xdeadbeefu);
  EXPECT_EQ(util::read_u64(is), 0x0123456789abcdefULL);
  EXPECT_EQ(util::read_f64(is), -0.1);
  EXPECT_EQ(util::read_f64(is), 0.0);
  EXPECT_EQ(util::read_string(is), "noodle");
  EXPECT_EQ(util::read_f64_vector(is), (std::vector<double>{1.5, -2.25, 1e-300}));
}

TEST(BinaryIo, TruncatedInputThrows) {
  std::istringstream is("\x01\x02");
  EXPECT_THROW(util::read_u64(is), std::runtime_error);
}

TEST(BinaryIo, AbsurdLengthPrefixThrowsInsteadOfAllocating) {
  std::ostringstream os;
  util::write_u64(os, ~0ULL);  // length prefix claiming 2^64-1 entries
  std::istringstream is(os.str());
  EXPECT_THROW(util::read_f64_vector(is), std::runtime_error);
}

TEST(BinaryIo, Fnv1a64MatchesReferenceVector) {
  // FNV-1a test vectors: empty input -> offset basis; "a" -> published value.
  EXPECT_EQ(util::fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
}

// --- snapshot archive framing ----------------------------------------------

TEST(SnapshotArchive, RoundTripsSections) {
  serve::SnapshotWriter writer;
  util::write_string(writer.begin_section("AAAA"), "first");
  util::write_string(writer.begin_section("BBBB"), "second");
  std::ostringstream os;
  writer.write_to(os);

  std::istringstream is(os.str());
  serve::SnapshotReader reader(is);
  EXPECT_EQ(reader.section_count(), 2u);
  EXPECT_TRUE(reader.has_section("AAAA"));
  EXPECT_FALSE(reader.has_section("ZZZZ"));
  // Out-of-order access by tag works.
  EXPECT_EQ(util::read_string(reader.section("BBBB")), "second");
  EXPECT_EQ(util::read_string(reader.section("AAAA")), "first");
  EXPECT_THROW(reader.section("AAAA"), serve::SnapshotError);  // consumed
  EXPECT_THROW(reader.section("ZZZZ"), serve::SnapshotError);  // missing
}

TEST(SnapshotArchive, RejectsBadMagicVersionTruncationAndCorruption) {
  serve::SnapshotWriter writer;
  util::write_string(writer.begin_section("DATA"), std::string(256, 'x'));
  std::ostringstream os;
  writer.write_to(os);
  const std::string bytes = os.str();

  {
    std::istringstream is("not a snapshot at all");
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::string wrong_version = bytes;
    wrong_version[8] = static_cast<char>(serve::kSnapshotVersion + 1);
    std::istringstream is(wrong_version);
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::istringstream is(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;  // single bit flip mid-payload
    std::istringstream is(flipped);
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::istringstream is(bytes);  // pristine bytes still parse
    EXPECT_NO_THROW(serve::SnapshotReader reader(is));
  }
}

// --- detector snapshot round trip -------------------------------------------

std::filesystem::path temp_snapshot_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

class DetectorSnapshot : public ::testing::Test {
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

  /// Saves the suite's model to a temp snapshot and returns its path.
  static std::filesystem::path saved(const char* name) {
    const auto path = temp_snapshot_path(name);
    model_->save(path);
    return path;
  }

  static void expect_identical_report(const core::DetectionReport& a,
                                      const core::DetectionReport& b) {
    // Bit-identical, not approximately equal: serialization must be exact.
    EXPECT_EQ(a.predicted_label, b.predicted_label);
    EXPECT_EQ(a.probability, b.probability);
    EXPECT_EQ(a.p_values, b.p_values);
    EXPECT_EQ(a.region.p, b.region.p);
    EXPECT_EQ(a.region.contains, b.region.contains);
    EXPECT_EQ(a.region.confidence, b.region.confidence);
    EXPECT_EQ(a.region.credibility, b.region.credibility);
    EXPECT_EQ(a.fusion_used, b.fusion_used);
  }

  static std::shared_ptr<const core::FittedModel> model_;
  static std::vector<data::CircuitSample>* corpus_;
  static std::vector<data::FeatureSample>* samples_;
};

std::shared_ptr<const core::FittedModel> DetectorSnapshot::model_;
std::vector<data::CircuitSample>* DetectorSnapshot::corpus_ = nullptr;
std::vector<data::FeatureSample>* DetectorSnapshot::samples_ = nullptr;

TEST_F(DetectorSnapshot, SaveLoadRoundTripIsBitIdentical) {
  const auto path = temp_snapshot_path("noodle_roundtrip.snap");
  // Saving must work through a const reference (a fitted model is
  // immutable at serving time).
  const core::FittedModel& fitted = *model_;
  fitted.save(path);

  const std::shared_ptr<const core::FittedModel> loaded = core::FittedModel::load(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->winning_fusion(), model_->winning_fusion());
  for (const auto& sample : *samples_) {
    expect_identical_report(loaded->scan_features(sample),
                            model_->scan_features(sample));
  }
  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, RoundTripSurvivesASecondGeneration) {
  // save -> load -> save -> load must stay stable (no drift in the format).
  const auto path1 = temp_snapshot_path("noodle_gen1.snap");
  const auto path2 = temp_snapshot_path("noodle_gen2.snap");
  model_->save(path1);
  const std::shared_ptr<const core::FittedModel> first = core::FittedModel::load(path1);
  first->save(path2);
  const std::shared_ptr<const core::FittedModel> second = core::FittedModel::load(path2);
  for (std::size_t i = 0; i < 8 && i < samples_->size(); ++i) {
    expect_identical_report(second->scan_features((*samples_)[i]),
                            model_->scan_features((*samples_)[i]));
  }
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST_F(DetectorSnapshot, ScanVerilogAfterLoadMatches) {
  const auto path = temp_snapshot_path("noodle_verilog.snap");
  model_->save(path);
  const std::shared_ptr<const core::FittedModel> loaded = core::FittedModel::load(path);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_identical_report(loaded->scan_verilog((*corpus_)[i].verilog),
                            model_->scan_verilog((*corpus_)[i].verilog));
  }
  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, CorruptedOrTruncatedSnapshotThrows) {
  const auto path = temp_snapshot_path("noodle_corrupt.snap");
  model_->save(path);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  }

  const auto write_variant = [&path](const std::string& content) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  };

  // Truncated to half.
  write_variant(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(core::FittedModel::load(path), serve::SnapshotError);

  // One corrupted byte deep inside the weight payload.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  write_variant(flipped);
  EXPECT_THROW(core::FittedModel::load(path), serve::SnapshotError);

  // Version bump.
  std::string wrong_version = bytes;
  wrong_version[8] = static_cast<char>(serve::kSnapshotVersion + 7);
  write_variant(wrong_version);
  EXPECT_THROW(core::FittedModel::load(path), serve::SnapshotError);

  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, ArchiveVersionTracksTheFeaturesUsed) {
  // The writer stamps the LOWEST version able to represent the payload: a
  // pure-f64 archive is byte-compatible with version 1 (old readers keep
  // loading them), f32 weights need version 2, int8 weights version 3.
  // All three must load here.
  const auto version_byte = [](const std::filesystem::path& path) {
    std::ifstream is(path, std::ios::binary);
    std::string header(12, '\0');
    is.read(header.data(), 12);
    return static_cast<unsigned>(static_cast<unsigned char>(header[8]));
  };

  const auto path = temp_snapshot_path("noodle_versions.snap");
  model_->save(path, nn::WeightPrecision::F64);
  EXPECT_EQ(version_byte(path), serve::kSnapshotVersionMin);
  const std::shared_ptr<const core::FittedModel> full = core::FittedModel::load(path);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_identical_report(full->scan_features((*samples_)[i]),
                            model_->scan_features((*samples_)[i]));
  }

  model_->save(path, nn::WeightPrecision::F32);
  EXPECT_EQ(version_byte(path), 2u);
  EXPECT_NO_THROW(core::FittedModel::load(path));

  model_->save(path, nn::WeightPrecision::I8);
  EXPECT_EQ(version_byte(path), serve::kSnapshotVersion);
  EXPECT_NO_THROW(core::FittedModel::load(path));
  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, MissingFileThrows) {
  EXPECT_THROW(core::FittedModel::load(temp_snapshot_path("noodle_does_not_exist.snap")),
               serve::SnapshotError);
}

// --- DetectionService --------------------------------------------------------

TEST_F(DetectorSnapshot, ServiceMatchesSequentialScansUnderConcurrency) {
  const auto path = temp_snapshot_path("noodle_service.snap");
  model_->save(path);

  serve::ServiceConfig config;
  config.max_batch = 4;
  config.workers = 2;
  serve::DetectionService service(path, config);
  std::filesystem::remove(path);

  std::vector<std::future<core::DetectionReport>> futures;
  futures.reserve(corpus_->size());
  for (const auto& circuit : *corpus_) futures.push_back(service.submit(circuit.verilog));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_identical_report(futures[i].get(),
                            model_->scan_verilog((*corpus_)[i].verilog));
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, corpus_->size());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.scans + stats.cache_hits, stats.requests);
  EXPECT_EQ(stats.parse_failures, 0u);
}

TEST_F(DetectorSnapshot, ServiceCacheHitsDoNotChangeResults) {
  serve::ServiceConfig config;
  config.max_batch = 8;
  const auto path = saved("noodle_cache.snap");
  serve::DetectionService service(path, config);
  std::filesystem::remove(path);

  const std::string& source = (*corpus_)[0].verilog;
  const core::DetectionReport first = service.scan(source);
  const core::DetectionReport again = service.scan(source);
  const core::DetectionReport direct = model_->scan_verilog(source);
  expect_identical_report(first, direct);
  expect_identical_report(again, direct);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);  // second scan of identical RTL is a hit
  EXPECT_EQ(stats.scans, 1u);
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST_F(DetectorSnapshot, ServiceCacheEvictsAtCapacityAndStaysCorrect) {
  serve::ServiceConfig config;
  config.cache_capacity = 2;
  const auto path = saved("noodle_evict.snap");
  serve::DetectionService service(path, config);
  std::filesystem::remove(path);

  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 4; ++i) {
      expect_identical_report(service.scan((*corpus_)[i].verilog),
                              model_->scan_verilog((*corpus_)[i].verilog));
    }
  }
  EXPECT_LE(service.cache_size(), 2u);
}

TEST_F(DetectorSnapshot, ServiceIsolatesParseErrorsToTheirOwnFuture) {
  serve::ServiceConfig config;
  config.max_batch = 3;
  const auto path = saved("noodle_parse.snap");
  serve::DetectionService service(path, config);
  std::filesystem::remove(path);

  auto good_before = service.submit((*corpus_)[0].verilog);
  auto bad = service.submit("module broken(");
  auto good_after = service.submit((*corpus_)[1].verilog);

  expect_identical_report(good_before.get(),
                          model_->scan_verilog((*corpus_)[0].verilog));
  EXPECT_ANY_THROW(bad.get());
  expect_identical_report(good_after.get(),
                          model_->scan_verilog((*corpus_)[1].verilog));
  service.drain();
  EXPECT_EQ(service.stats().parse_failures, 1u);
}

/// The value of one labelled counter in a metrics snapshot (0 if absent).
std::uint64_t sample_counter(const std::vector<obs::MetricsRegistry::Sample>& samples,
                             const std::string& name, const obs::Labels& labels) {
  for (const auto& sample : samples) {
    if (sample.name == name && sample.labels == labels) return sample.counter;
  }
  return 0;
}

std::uint64_t probe_count(serve::DetectionService& service, const char* outcome) {
  return sample_counter(service.metrics_snapshot(), "noodle_cache_probes_total",
                        {{"outcome", outcome}});
}

TEST_F(DetectorSnapshot, DiskTierServesBitIdenticalVerdictsAcrossRestarts) {
  // End-to-end persistence: service A scans cold and persists the verdict;
  // a brand-new service B (empty in-memory cache, same cache directory,
  // same snapshot) must answer from the disk tier — no model scan — with a
  // report bit-identical to a direct cold scan.
  const auto path = temp_snapshot_path("noodle_disk_tier.snap");
  model_->save(path);
  const auto cache_dir =
      std::filesystem::temp_directory_path() / "noodle_disk_tier_cache";
  std::filesystem::remove_all(cache_dir);

  serve::ServiceConfig config;
  config.disk_cache.directory = cache_dir;
  const std::string& source = (*corpus_)[0].verilog;

  {
    serve::DetectionService service(path, config);
    ASSERT_NE(service.disk_cache(), nullptr);
    expect_identical_report(service.scan(source),
                            model_->scan_verilog(source));
    service.disk_cache()->flush();
    EXPECT_EQ(service.disk_cache_stats().stores, 1u);
    EXPECT_EQ(service.stats().disk_hits, 0u);
  }
  {
    serve::DetectionService service(path, config);
    EXPECT_EQ(service.disk_cache_stats().loaded, 1u)
        << "restart scanner did not pick up the persisted record";
    const core::DetectionReport warm = service.scan(source);
    expect_identical_report(warm, model_->scan_verilog(source));
    EXPECT_FALSE(warm.served_by.empty());

    const serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.scans, 0u) << "disk tier should have spared the model";
    EXPECT_EQ(probe_count(service, "disk_hit"), 1u);

    // The disk hit promoted the entry: the next identical scan is a memory
    // hit, not a second disk probe.
    service.scan(source);
    EXPECT_EQ(service.stats().cache_hits, 1u);
    EXPECT_EQ(service.stats().disk_hits, 1u);
  }
  std::filesystem::remove(path);
  std::filesystem::remove_all(cache_dir);
}

TEST_F(DetectorSnapshot, DiskTierDisabledServiceBehavesExactlyAsBefore) {
  // No disk_cache directory configured: the tier must not exist, stats stay
  // all-zero/disabled, and scans behave identically to the pre-disk world.
  const auto path = saved("noodle_no_disk.snap");
  serve::DetectionService service(path, serve::ServiceConfig{});
  std::filesystem::remove(path);
  EXPECT_EQ(service.disk_cache(), nullptr);
  const serve::DiskCacheStats stats = service.disk_cache_stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.entries, 0u);
  expect_identical_report(service.scan((*corpus_)[0].verilog),
                          model_->scan_verilog((*corpus_)[0].verilog));
  EXPECT_EQ(service.stats().disk_hits, 0u);
}

// --- observability: cache-probe accounting, timing, metrics mirror -----------

TEST_F(DetectorSnapshot, CacheProbeAccountingIsExactUnderLintToggles) {
  const auto path = saved("noodle_probes.snap");
  serve::DetectionService service(path, serve::ServiceConfig{});
  std::filesystem::remove(path);
  const std::string& source = (*corpus_)[0].verilog;

  // lint off: first scan misses (absent), second hits.
  service.scan(source);
  service.scan(source);
  // lint on: the cached verdict has no lint findings, so serving it would be
  // wrong — the probe must be a visible lint-state miss, never a phantom hit.
  service.set_lint(true);
  const core::DetectionReport linted = service.scan(source);
  EXPECT_TRUE(linted.lint_ran);
  // Re-cached with lint on: a hit again, and the hit carries the findings.
  const core::DetectionReport linted_hit = service.scan(source);
  EXPECT_TRUE(linted_hit.lint_ran);
  // Toggling back off mismatches the lint-on entry the same way.
  service.set_lint(false);
  EXPECT_FALSE(service.scan(source).lint_ran);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.scans, 3u);

  // The probe taxonomy partitions requests exactly: one outcome per submit.
  EXPECT_EQ(probe_count(service, "hit"), 2u);
  EXPECT_EQ(probe_count(service, "miss_absent"), 1u);
  EXPECT_EQ(probe_count(service, "miss_lint_state"), 2u);
  EXPECT_EQ(probe_count(service, "miss_collision"), 0u);
  EXPECT_EQ(probe_count(service, "miss_bypass"), 0u);
  EXPECT_EQ(probe_count(service, "hit") + probe_count(service, "miss_absent") +
                probe_count(service, "miss_lint_state") +
                probe_count(service, "miss_collision") +
                probe_count(service, "miss_bypass"),
            stats.requests);
}

TEST_F(DetectorSnapshot, StatsAndMetricsMirrorNeverDisagree) {
  const auto path = saved("noodle_mirror.snap");
  serve::DetectionService service(path, serve::ServiceConfig{});
  std::filesystem::remove(path);
  for (std::size_t i = 0; i < 6; ++i) {
    service.scan((*corpus_)[i % 3].verilog);
  }

  const auto samples = service.metrics_snapshot();
  const serve::ServiceStats stats = service.stats();
  const obs::Labels model{{"model", serve::kDefaultModelName}};
  EXPECT_EQ(sample_counter(samples, "noodle_requests_total", model), stats.requests);
  EXPECT_EQ(sample_counter(samples, "noodle_cache_hits_total", model), stats.cache_hits);
  EXPECT_EQ(sample_counter(samples, "noodle_scans_total", model), stats.scans);
  EXPECT_EQ(sample_counter(samples, "noodle_batches_total", model), stats.batches);

  // And the rendered exposition agrees with the same snapshot the stats API
  // hands out (both read the same registry cells).
  std::ostringstream os;
  service.render_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("noodle_requests_total{model=\"default\"} " +
                      std::to_string(stats.requests)),
            std::string::npos);
}

TEST_F(DetectorSnapshot, ReportsCarryTimingAndDistinctTraceIds) {
  const auto path = saved("noodle_timing.snap");
  serve::DetectionService service(path, serve::ServiceConfig{});
  std::filesystem::remove(path);

  const core::DetectionReport a = service.scan((*corpus_)[0].verilog);
  const core::DetectionReport b = service.scan((*corpus_)[1].verilog);
  const core::DetectionReport hit = service.scan((*corpus_)[0].verilog);

  // Every request gets a distinct nonzero trace id, hits included.
  EXPECT_NE(a.timing.trace_id, 0u);
  EXPECT_NE(b.timing.trace_id, 0u);
  EXPECT_NE(hit.timing.trace_id, 0u);
  EXPECT_NE(a.timing.trace_id, b.timing.trace_id);
  EXPECT_NE(a.timing.trace_id, hit.timing.trace_id);
  EXPECT_NE(b.timing.trace_id, hit.timing.trace_id);

  EXPECT_FALSE(a.timing.from_cache);
  EXPECT_FALSE(b.timing.from_cache);
  EXPECT_TRUE(hit.timing.from_cache);

  // Scanned requests: the total spans submit -> resolve, so it dominates
  // the queue wait (batch linger alone is ~2ms).
  EXPECT_GT(a.timing.total_us, 0u);
  EXPECT_GE(a.timing.total_us, a.timing.queue_wait_us);
  EXPECT_GE(b.timing.total_us, b.timing.queue_wait_us);

  // The per-stage histograms saw every request: one total recording each.
  const auto samples = service.metrics_snapshot();
  for (const auto& sample : samples) {
    if (sample.name != "noodle_stage_duration_seconds") continue;
    if (sample.labels == obs::Labels{{"stage", "total"}}) {
      EXPECT_EQ(sample.histogram.count, 3u);
    }
  }
}

}  // namespace
}  // namespace noodle
