#pragma once
// obs::MetricsRegistry — named counters, gauges, and latency histograms
// with label support and Prometheus text exposition. This is the standard
// instrumentation surface for the serving stack: DetectionService owns one,
// `noodled !metrics` / `--metrics-file` render it, and every later
// transport/sharding PR exports through it unchanged.
//
// Usage contract (mirrors the repo's workspace discipline):
//
//   * registration (counter()/gauge()/histogram()) is the slow path: it
//     takes the registry mutex, may allocate, and returns a reference that
//     stays valid for the registry's lifetime — do it once at startup;
//   * recording on the returned handles is the hot path: lock-free atomic
//     ops with zero heap allocations (counting-operator-new asserted in
//     tests/test_obs.cpp);
//   * snapshot() and render_prometheus() walk every family under the
//     registry mutex, so membership is consistent and a family's samples
//     are read in one pass; individual cells are monotone atomics, so a
//     racing increment lands in this read or the next, never torn.
//
// Metric and label names must match Prometheus rules
// ([a-zA-Z_:][a-zA-Z0-9_:]*); registration throws on anything else, and on
// re-registering a name as a different metric type.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace noodle::obs {

/// Monotone event counter. set() exists for sampling an external monotone
/// source at render time (e.g. DiskCacheStats) — it must never be handed a
/// smaller value.
///
/// inc() is a release and value() an acquire, so counters can be read as a
/// consistent view without a lock: if event B is counted after event A,
/// a reader that loads B's counter and then A's sees at least as many As
/// as Bs (DetectionService's stats views rely on this). On x86-64 both
/// compile to the same instructions as relaxed order.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_release); }
  void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_release); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value (queue depths, in-flight counts, cache sizes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) noexcept { value_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

  /// The raw cell, for embedders that update a gauge from code that must
  /// not depend on obs:: (util::ThreadPool's queue-depth hook).
  std::atomic<std::int64_t>& cell() noexcept { return value_; }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// One label key/value pair; a metric is identified by (name, label set).
struct Label {
  std::string key;
  std::string value;
  bool operator==(const Label&) const = default;
};
using Labels = std::vector<Label>;

enum class MetricType { kCounter, kGauge, kHistogram };

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The same (name, labels) always returns the same object;
  /// the reference stays valid for the registry's lifetime. The first call
  /// for a name fixes its type and help text; a later call with another
  /// type throws std::invalid_argument, as do malformed names/labels.
  Counter& counter(std::string_view name, std::string_view help, Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help, Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help, Labels labels = {});

  /// One metric's merged value at snapshot time.
  struct Sample {
    std::string name;
    MetricType type = MetricType::kCounter;
    Labels labels;
    std::uint64_t counter = 0;           ///< kCounter
    std::int64_t gauge = 0;              ///< kGauge
    Histogram::Snapshot histogram;       ///< kHistogram
  };

  /// Every registered metric, ordered by (name, registration order).
  /// Membership is mutex-consistent; cell values are merged atomically per
  /// metric (see header comment).
  std::vector<Sample> snapshot() const;

  /// Prometheus text exposition (format 0.0.4): one # HELP / # TYPE pair
  /// per family, histogram families as cumulative `_bucket{le="..."}`
  /// series (seconds) plus `_sum` / `_count`. Rendered in one pass under
  /// the registry mutex.
  void render_prometheus(std::ostream& os) const;

  /// Registered family count (not label variants).
  std::size_t family_count() const;

 private:
  struct Entry {
    Labels labels;
    // Exactly one is set, matching the family type. unique_ptr keeps
    // addresses stable across the vector's growth.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Entry> entries;
  };

  Entry& find_or_create(std::string_view name, std::string_view help,
                        MetricType type, Labels&& labels);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;  // sorted exposition
};

}  // namespace noodle::obs
