#include "common.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "data/corpus.h"
#include "net/protocol.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace noodlebench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

const std::string& DesignPool::at(std::size_t i) {
  constexpr std::size_t kChunk = 512;
  while (designs_.size() <= i) {
    noodle::data::CorpusSpec spec;
    spec.design_count = kChunk;
    spec.seed = seed_ * 1000003ULL + chunk_++;
    for (noodle::data::CircuitSample& circuit : noodle::data::build_corpus(spec)) {
      std::string flat = std::move(circuit.verilog);
      std::replace(flat.begin(), flat.end(), '\n', ' ');
      if (seen_.insert(noodle::util::fnv1a64(flat)).second) {
        designs_.push_back(std::move(flat));
      }
    }
  }
  return designs_[i];
}

std::vector<std::string> expected_lines(const noodle::core::FittedModel& model,
                                        std::span<const std::string> sources,
                                        const std::string& label, std::size_t threads) {
  std::vector<noodle::core::DetectionReport> reports =
      model.scan_verilog_many(sources, threads);
  std::vector<std::string> lines;
  lines.reserve(reports.size());
  for (noodle::core::DetectionReport& report : reports) {
    report.served_by = label;
    lines.push_back(noodle::net::protocol::verdict_line(
        report, noodle::net::protocol::kInlineEcho, false));
  }
  return lines;
}

std::string strip_trace(const std::string& line) {
  const std::size_t at = line.find("\ttrace=");
  if (at == std::string::npos) return line;
  const std::size_t end = line.find('\t', at + 1);
  if (end == std::string::npos) return line.substr(0, at);
  return line.substr(0, at) + line.substr(end);
}

std::vector<std::vector<std::int64_t>> poisson_schedule(std::uint64_t seed, double rate,
                                                        double seconds,
                                                        std::size_t conns) {
  std::vector<std::vector<std::int64_t>> schedule(conns);
  const double per_conn = rate / static_cast<double>(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    noodle::util::Rng rng(seed * 7919ULL + c);
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / per_conn;
      if (t >= seconds) break;
      schedule[c].push_back(static_cast<std::int64_t>(t * 1e9));
    }
  }
  return schedule;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double grouped_quantile(const std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0.0;
  std::map<std::uint64_t, std::size_t> counts;
  for (const std::uint64_t v : values) ++counts[v];
  const double target = q * static_cast<double>(values.size());
  double below = 0.0;
  for (const auto& [value, count] : counts) {
    const double n = static_cast<double>(count);
    if (below + n >= target) return static_cast<double>(value) + (target - below) / n;
    below += n;
  }
  return static_cast<double>(counts.rbegin()->first) + 1.0;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

StatsText parse_stats(const std::string& text) {
  StatsText stats;
  std::istringstream lines(text);
  std::string line;
  constexpr std::string_view kPrefix = "noodled stats[";
  while (std::getline(lines, line)) {
    const std::size_t at = line.find(kPrefix);
    if (at == std::string::npos) continue;
    const std::size_t close = line.find("]:", at);
    if (close == std::string::npos) continue;
    const std::string label = line.substr(at + kPrefix.size(), close - at - kPrefix.size());
    std::istringstream fields(line.substr(close + 2));
    std::string field;
    while (fields >> field) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) continue;
      try {
        stats[label][field.substr(0, eq)] = std::stod(field.substr(eq + 1));
      } catch (const std::exception&) {
        // Non-numeric fields (last_error=...) are not counters.
      }
    }
  }
  return stats;
}

double stat(const StatsText& stats, const std::string& label, const std::string& key) {
  const auto line = stats.find(label);
  if (line == stats.end()) return -1.0;
  const auto value = line->second.find(key);
  return value == line->second.end() ? -1.0 : value->second;
}

IdlePoller::IdlePoller() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < cpus; ++i) {
    threads_.emplace_back([this] {
      const sched_param param{0};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

IdlePoller::~IdlePoller() {
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Metrics::json() const {
  std::ostringstream out;
  out << std::setprecision(10) << "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    out << (i ? ", " : "") << "\"" << order_[i] << "\": {\"value\": " << value
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}";
  return out.str();
}

}  // namespace noodlebench
