#pragma once
// Shared pieces of the benchmark harness: the generated workload designs,
// the in-process reference oracle, Poisson schedules, quantiles, the
// `noodled stats[...]` line parser and the metric table nbtool prints.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/fitted_model.h"

namespace noodlebench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (same clock as obs::now_nanos).
std::int64_t now_ns();

/// Distinct one-line designs generated from a workload seed with
/// data::build_corpus, in chunks, so a run can take as many as it needs.
/// Newlines are flattened to spaces: the designs carry no line comments,
/// and Verilog is whitespace-insensitive, so the flattened text is what
/// the daemon and the oracle both scan.
class DesignPool {
 public:
  explicit DesignPool(std::uint64_t seed) : seed_(seed) {}
  /// Design i (generates up to it on first use).
  const std::string& at(std::size_t i);

 private:
  std::uint64_t seed_;
  std::uint64_t chunk_ = 0;
  std::vector<std::string> designs_;
  std::unordered_set<std::uint64_t> seen_;
};

/// The oracle: net::protocol::verdict_line of an in-process FittedModel
/// scan of each source, stamped with the daemon's generation label and the
/// inline echo. Scans fan out over `threads`.
std::vector<std::string> expected_lines(const noodle::core::FittedModel& model,
                                        std::span<const std::string> sources,
                                        const std::string& label, std::size_t threads);

/// A response line with its trace= column removed (traced daemons insert
/// it before the echo; the oracle's line has none).
std::string strip_trace(const std::string& line);

/// Per-connection arrival offsets (ns from the phase start) of a Poisson
/// process at `rate` per second split evenly across `conns` connections.
std::vector<std::vector<std::int64_t>> poisson_schedule(std::uint64_t seed, double rate,
                                                        double seconds,
                                                        std::size_t conns);

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
/// Quantile of integer-microsecond readings (the trace= column truncates
/// nanoseconds), treating each reading v as the interval [v, v+1) and
/// interpolating inside it, so a sample quantized to 1 us still yields a
/// continuous estimate.
double grouped_quantile(const std::vector<std::uint64_t>& values, double q);
double median(std::vector<double> values);

/// "noodled stats[LABEL]: k=v k=v ..." lines -> stats[LABEL][k] = v.
using StatsText = std::map<std::string, std::map<std::string, double>>;
StatsText parse_stats(const std::string& text);
double stat(const StatsText& stats, const std::string& label, const std::string& key);

/// Keeps every CPU polling while the benchmark runs: one SCHED_IDLE thread
/// per CPU spins (with pause) and yields at once to any runnable thread. On
/// a VM an idle vCPU halts, and waking it takes the hypervisor up to
/// milliseconds; polling keeps those host wake-ups out of the latencies
/// measured (the user-space equivalent of booting with idle=poll).
class IdlePoller {
 public:
  IdlePoller();
  ~IdlePoller();
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The metrics a run prints, in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace noodlebench
