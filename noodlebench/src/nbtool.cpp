// nbtool — the benchmark harness behind noodlebench/run.py. One invocation
// runs one workload against a real noodled and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}:
//
//   nbtool --noodled BIN --work DIR --workload cold_tcp|hot_tcp|nightly_stdin
//          --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 re-runs the workload
// with noodled's trace= column on and times each layer in-process, and
// prints the per-layer metrics instead. The fixed workload parameters
// (daemon flags, rate ladder, nominal rate, p99 limit) live in kWorkloads
// below; README.md explains each metric.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "common.h"
#include "daemon.h"
#include "layers.h"
#include "loadgen.h"
#include "util/rng.h"

using namespace noodlebench;
namespace fs = std::filesystem;

namespace {

struct Workload {
  const char* name;
  bool tcp;
  std::size_t working_set;  ///< distinct designs re-sent; 0 = every request new
  double nominal_rps;       ///< rate p50_ms/p99_ms are reported at
  double ladder_lo, ladder_hi, ladder_step;  ///< geometric capacity ladder
  double p99_limit_ms;      ///< latency limit that defines capacity_rps
};

// Fixed by the benchmark definition: a later change may not edit these.
constexpr Workload kWorkloads[] = {
    {"cold_tcp", true, 0, 5000.0, 2500.0, 160000.0, 1.08, 33.0},
    {"hot_tcp", true, 64, 5000.0, 2500.0, 160000.0, 1.08, 8.0},
    {"nightly_stdin", false, 0, 0.0, 0.0, 0.0, 0.0, 0.0},
};

constexpr std::size_t kLanes = 2;          ///< generator connections (one thread)
constexpr std::size_t kWorkers = 2;        ///< noodled --workers: loop + workers +
                                           ///< generator fit 4 CPUs
constexpr std::size_t kSetups = 3;         ///< daemon launches per run for setup_s
constexpr double kNominalShare = 0.6;      ///< of --seconds, at the nominal rate
constexpr std::size_t kProbes = 24;        ///< ladder probe budget (binary search)
constexpr int kVotes = 2;                  ///< probes that decide a rung (of at most 3)
constexpr std::size_t kNominalSegments = 6;  ///< nominal phase pieces between probes
constexpr std::size_t kSegmentAttempts = 3;  ///< runs of a segment the generator spoils
constexpr double kWarmS = 3.0;             ///< discarded open-loop warm-up at nominal
constexpr double kSettleS = 1.0;           ///< discarded nominal load after probes
constexpr std::size_t kColdFill = 4608;    ///< cold warm-up designs: > --cache 4096
constexpr std::size_t kColdPool = 16384;   ///< cold designs cycled: 4x --cache 4096
/// The generator is behind schedule (run invalid, probe a miss) when its p99
/// send lateness exceeds this share of the workload's p99 limit.
constexpr double kGenLateShare = 0.2;
constexpr std::size_t kLibrary = 2000;     ///< nightly library size
constexpr double kChangedShare = 0.1;      ///< nightly designs changed since yesterday
const std::string kLabel = "default@1";    ///< generation the daemon serves

struct Args {
  std::string noodled;
  fs::path work;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--noodled") args.noodled = value;
    else if (key == "--work") args.work = value;
    else if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else throw std::invalid_argument("unknown option " + key);
  }
  if (args.noodled.empty() || args.work.empty() || args.seconds <= 0) {
    throw std::invalid_argument("usage: nbtool --noodled BIN --work DIR --workload W "
                                "--seed N --seconds S --trace 0|1");
  }
  return args;
}

/// Run-wide verdict bookkeeping: what was attempted, what failed, and why.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  void fail(const std::string& why, std::size_t count = 1) {
    failed += count;
    correct = false;
    std::cerr << "nbtool: FAIL " << why << "\n";
  }
};

std::uint16_t listening_port(Daemon& daemon) {
  const std::string line = daemon.wait_stderr("listening on", 300.0);
  return static_cast<std::uint16_t>(std::stoul(line.substr(line.rfind(':') + 1)));
}

/// The designs of a TCP workload with their request lines and oracle
/// verdicts, generated once per run. cold_tcp cycles through kColdPool
/// designs in send order, so a design recurs only after kColdPool - 1
/// others: four times the LRU's capacity, hence always evicted, always a
/// miss (the harness checks scans == requests against the daemon's stats).
/// hot_tcp draws uniformly from its working set.
class TcpInputs {
 public:
  TcpInputs(std::uint64_t seed, const noodle::core::FittedModel& model,
            std::size_t working_set)
      : pool_(seed), working_set_(working_set), rng_(seed ^ 0x5eedULL) {
    const std::size_t size = working_set > 0 ? working_set : kColdPool;
    for (std::size_t i = 0; i < size; ++i) sources_.push_back(pool_.at(i));
    expected_ = expected_lines(model, sources_, kLabel, 0);
    for (const std::string& source : sources_) lines_.push_back("~inline " + source + "\n");
  }

  /// Items for a schedule, assigned in due-time order across lanes.
  std::vector<std::vector<Item>> assign(const std::vector<std::vector<std::int64_t>>& sched) {
    std::vector<std::tuple<std::int64_t, std::size_t, std::size_t>> order;
    for (std::size_t c = 0; c < sched.size(); ++c) {
      for (std::size_t k = 0; k < sched[c].size(); ++k) order.emplace_back(sched[c][k], c, k);
    }
    std::sort(order.begin(), order.end());
    std::vector<std::vector<Item>> items(sched.size());
    for (std::size_t c = 0; c < sched.size(); ++c) items[c].resize(sched[c].size());
    last_order_.clear();
    for (const auto& [due, c, k] : order) {
      const std::size_t id = next_id();
      items[c][k] = Item{&lines_[id], &expected_[id]};
      last_order_.emplace_back(due, id);
    }
    return items;
  }
  /// The next `n` designs in send order (the whole working set, when hot).
  std::vector<std::size_t> take(std::size_t n) {
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(working_set_ > 0 ? i : next_id());
    return ids;
  }
  /// (due offset, design id) of the last assign(), in send order.
  const std::vector<std::pair<std::int64_t, std::size_t>>& last_order() const {
    return last_order_;
  }
  const std::string& source(std::size_t i) const { return sources_[i]; }
  const std::string& line(std::size_t i) const { return lines_[i]; }
  const std::string& expected(std::size_t i) const { return expected_[i]; }

 private:
  std::size_t next_id() {
    return working_set_ > 0 ? rng_() % working_set_ : cursor_++ % sources_.size();
  }

  DesignPool pool_;
  std::size_t working_set_;
  noodle::util::Rng rng_;
  std::size_t cursor_ = 0;
  std::vector<std::string> sources_, lines_, expected_;
  std::vector<std::pair<std::int64_t, std::size_t>> last_order_;
};

void check_responses(const std::vector<std::string>& got,
                     const std::vector<std::string>& want, const std::string& what,
                     Outcome& outcome) {
  outcome.attempted += want.size();
  std::size_t bad = want.size() > got.size() ? want.size() - got.size() : 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (strip_trace(got[i]) != want[i]) {
      if (bad == 0) {
        std::cerr << "nbtool: " << what << " got '" << got[i] << "' want '" << want[i]
                  << "'\n";
      }
      ++bad;
    }
  }
  if (bad > 0) outcome.fail(what + ": " + std::to_string(bad) + " wrong or missing verdicts", bad);
}

/// Cross-checks a phase's sent/answered counts against the daemon's own
/// `!stats` service and net lines (deltas over the phase).
void reconcile(const StatsText& before, const StatsText& after, const PhaseResult& r,
               bool all_hits, Outcome& outcome) {
  const auto delta = [&](const char* label, const char* key) {
    return stat(after, label, key) - stat(before, label, key);
  };
  const double sent = static_cast<double>(r.sent);
  const double served = sent - static_cast<double>(r.busy);
  struct Check {
    const char* what;
    double got, want;
  };
  const Check checks[] = {
      {"net requests", delta("net", "requests"), sent},
      {"net responses", delta("net", "responses"), sent + 1},  // + the !stats reply
      {"net shed", delta("net", "shed"), static_cast<double>(r.busy)},
      {"service requests", delta("total", "requests"), served},
      {all_hits ? "service cache_hits" : "service scans",
       delta("total", all_hits ? "cache_hits" : "scans"),
       served - static_cast<double>(r.timeouts)},
  };
  for (const Check& c : checks) {
    if (c.got != c.want) {
      outcome.fail(std::string("stats mismatch: ") + c.what + " daemon=" +
                       std::to_string(c.got) + " harness=" + std::to_string(c.want),
                   static_cast<std::size_t>(std::fabs(c.got - c.want)));
    }
  }
}

StatsText query_stats(std::uint16_t port) {
  return parse_stats(control(port, "!stats", "stats[net]"));
}

std::vector<std::string> daemon_args(const fs::path& snapshot, bool tcp) {
  // noodled's defaults, pinned so a change of default cannot change the
  // benchmark, plus kWorkers workers.
  std::vector<std::string> args{"--snapshot", snapshot.string(), "--batch", "16",
                                "--cache", "4096", "--workers", std::to_string(kWorkers)};
  if (tcp) {
    args.push_back("--listen");
    args.push_back("0");
  }
  return args;
}

void report_phase(const char* what, const PhaseResult& r) {
  std::cerr << "nbtool: " << what << " rate=" << r.rate << " sent=" << r.sent
            << " ok=" << r.ok << " busy=" << r.busy << " timeouts=" << r.timeouts
            << " errors=" << r.errors << " mismatches=" << r.mismatches
            << " dropped=" << r.dropped << " p50_ms=" << r.p(0.5)
            << " p99_ms=" << r.p(0.99) << " (n=" << r.latency_ms.size()
            << ") late_p99_ms=" << r.late_p99()
            << " backlog_growth=" << (r.backlog_end - r.backlog_mid) << "\n";
  for (const std::string& m : r.first_mismatches) std::cerr << "nbtool:   " << m << "\n";
}

/// A phase's verdict failures are correctness failures wherever they occur;
/// shedding (BUSY) is only a failure where the workload promises none.
void count_phase(const PhaseResult& r, bool shedding_is_failure, Outcome& outcome) {
  if (r.mismatches > 0) outcome.fail("wrong verdicts", r.mismatches);
  if (r.errors > 0) outcome.fail("error status lines", r.errors);
  if (shedding_is_failure) {
    outcome.attempted += r.sent;
    const std::size_t shed = r.busy + r.timeouts + r.dropped;
    if (shed > 0) {
      outcome.failed += shed;
      std::cerr << "nbtool: FAIL " << shed << " BUSY/TIMEOUT/dropped at the nominal rate\n";
    }
  }
}

// --------------------------------------------------------------------------
// TCP workloads
// --------------------------------------------------------------------------

struct TcpRun {
  std::unique_ptr<Daemon> daemon;
  std::uint16_t port = 0;
  std::shared_ptr<const noodle::core::FittedModel> model;
  std::vector<double> setup_s;
};

/// Launches noodled with no snapshot (so it fits and saves), `launches`
/// times, timing launch -> first verdict line; keeps the last daemon.
TcpRun start_tcp(const Args& args, std::size_t launches, bool trace_flag, Outcome& outcome) {
  TcpRun run;
  const fs::path snapshot = args.work / "detector.snap";
  DesignPool probe_pool(args.seed ^ 0xfeedULL);
  const std::string probe = "~inline " + probe_pool.at(0) + "\n";
  std::string probe_response;
  for (std::size_t i = 0; i < launches; ++i) {
    if (run.daemon) {
      if (const int status = run.daemon->stop(SIGTERM, 60.0); status != 0) {
        outcome.fail("noodled exited with status " + std::to_string(status));
      }
    }
    fs::remove(snapshot);
    std::vector<std::string> flags = daemon_args(snapshot, true);
    if (trace_flag) flags.push_back("--trace");
    run.daemon = std::make_unique<Daemon>(args.noodled, flags, false, false);
    run.port = listening_port(*run.daemon);
    const std::vector<std::string> got = send_all(run.port, {probe});
    run.setup_s.push_back(static_cast<double>(now_ns() - run.daemon->launched_ns()) / 1e9);
    probe_response = got.empty() ? "" : got[0];
  }
  run.model = noodle::core::FittedModel::load(snapshot);
  const std::vector<std::string> sources{probe_pool.at(0)};
  check_responses({probe_response}, expected_lines(*run.model, sources, kLabel, 1),
                  "setup probe", outcome);
  return run;
}

PhaseResult run_rate(TcpRun& run, TcpInputs& inputs, double rate, double seconds,
                     std::uint64_t schedule_seed, bool traced);

/// Untimed warm-up: the hot working set (or, cold, enough fresh designs to
/// fill the LRU so evictions are in steady state), closed loop, then a
/// discarded open-loop second at the nominal rate. Verdicts are checked.
/// Returns the closed-loop responses (their trace= columns, when on).
std::vector<std::string> warm_up(TcpRun& run, TcpInputs& inputs, const Workload& w,
                                 std::uint64_t seed, Outcome& outcome) {
  std::vector<std::string> lines, want;
  for (const std::size_t id : inputs.take(w.working_set > 0 ? w.working_set : kColdFill)) {
    lines.push_back(inputs.line(id));
    want.push_back(inputs.expected(id));
  }
  std::vector<std::string> got = send_all(run.port, lines);
  check_responses(got, want, "warm-up", outcome);
  const PhaseResult r = run_rate(run, inputs, w.nominal_rps, kWarmS, seed * 31, false);
  count_phase(r, false, outcome);
  return got;
}

PhaseResult run_rate(TcpRun& run, TcpInputs& inputs, double rate, double seconds,
                     std::uint64_t schedule_seed, bool traced) {
  const auto schedule = poisson_schedule(schedule_seed, rate, seconds, kLanes);
  const auto items = inputs.assign(schedule);
  PhaseResult r = run_phase(run.port, schedule, items, traced);
  r.rate = rate;
  return r;
}

/// Binary search for the highest ladder rung whose p99 meets the limit with
/// nothing shed and no growing backlog. A rung is decided by the majority of
/// up to three valid probes (the first kVotes alike), so neither one stall
/// nor one lucky probe decides it. A probe in which the generator fell
/// behind is invalid (a host stall paused it too) and is repeated; a rung
/// the generator cannot drive in kVotes + 1 tries fails.
class CapacitySearch {
 public:
  explicit CapacitySearch(const Workload& w) : w_(w) {
    for (double r = w.ladder_lo; r <= w.ladder_hi * 1.0001; r *= w.ladder_step) {
      ladder_.push_back(std::round(r));
    }
    hi_ = static_cast<long>(ladder_.size());
  }
  bool done() const { return hi_ - lo_ <= 1; }
  double next_rate() const { return ladder_[mid()]; }
  void record(const PhaseResult& r, double gen_limit_ms) {
    if (r.late_p99() > gen_limit_ms && ++invalid_ <= kVotes) {
      std::cerr << "nbtool: probe invalid (generator behind); repeated\n";
      return;
    }
    const bool driven = invalid_ <= kVotes;
    const double growth = static_cast<double>(r.backlog_end - r.backlog_mid);
    const bool pass = driven && r.failed() == 0 && r.p(0.99) <= w_.p99_limit_ms &&
                      growth <= std::max(16.0, r.rate * w_.p99_limit_ms / 1e3);
    if (pass) {
      achieved_ = std::max(achieved_, r.elapsed_s > 0
                                          ? static_cast<double>(r.answered) / r.elapsed_s
                                          : 0.0);
    }
    if (!driven) failures_ = kVotes - 1;  // the generator cannot drive this rung
    if (++(pass ? passes_ : failures_) < kVotes) return;
    if (pass) {
      capacity = ladder_[mid()];
      achieved = achieved_;
      lo_ = mid();
    } else {
      hi_ = mid();
    }
    passes_ = failures_ = invalid_ = 0;
    achieved_ = 0.0;
  }

  double capacity = 0.0;  ///< highest passing rung so far
  double achieved = 0.0;  ///< verdicts per second achieved on it

 private:
  long mid() const { return (lo_ + hi_) / 2; }

  const Workload& w_;
  std::vector<double> ladder_;
  long lo_ = -1, hi_ = 0;
  int passes_ = 0, failures_ = 0, invalid_ = 0;
  double achieved_ = 0.0;  ///< best verdict rate among the rung's passing probes
};

void run_tcp(const Args& args, const Workload& w, Metrics& m, Outcome& outcome) {
  TcpRun run = start_tcp(args, kSetups, false, outcome);
  TcpInputs inputs(args.seed, *run.model, w.working_set);
  warm_up(run, inputs, w, args.seed, outcome);
  // Peak RSS once the daemon holds its steady-state data (cold: a full LRU),
  // before any probe overloads it and sizes its buffers by chance.
  const double rss = run.daemon->peak_rss_mb();

  // The nominal phase is split into segments interleaved with the capacity
  // probes, so the reported latency samples the host across the whole run
  // rather than one stretch of it. Each segment follows a share of the
  // probes and a settling second at the nominal rate: on a VM, latency
  // right after a light warm-up reads high until sustained load has run.
  const double gen_limit_ms = w.p99_limit_ms * kGenLateShare;
  const double segment_s = args.seconds * kNominalShare / kNominalSegments;
  const double probe_s = args.seconds * (1.0 - kNominalShare) / kProbes;
  CapacitySearch search(w);
  PhaseResult nominal;
  std::size_t probes = 0;
  for (std::size_t segment = 0; segment < kNominalSegments; ++segment) {
    while (probes < kProbes * (segment + 1) / kNominalSegments && !search.done()) {
      const PhaseResult p = run_rate(run, inputs, search.next_rate(), probe_s,
                                     args.seed * 31 + 2 + probes++, false);
      report_phase("probe", p);
      count_phase(p, false, outcome);
      search.record(p, gen_limit_ms);
    }
    const PhaseResult settle = run_rate(run, inputs, w.nominal_rps, kSettleS,
                                        args.seed * 31 + 200 + segment, false);
    count_phase(settle, false, outcome);
    // A segment in which the generator fell behind measured a host stall
    // (the spinning generator was paused too), not the server: it is re-run
    // with the next schedule. A stall of the server alone leaves the
    // generator on time, so it stays in the sample and in p99_ms.
    for (std::size_t attempt = 0;; ++attempt) {
      const StatsText before = query_stats(run.port);
      const PhaseResult r = run_rate(run, inputs, w.nominal_rps, segment_s,
                                     args.seed * 31 + 100 + 10 * segment + attempt, false);
      reconcile(before, query_stats(run.port), r, w.working_set > 0, outcome);
      report_phase("nominal", r);
      count_phase(r, true, outcome);
      const bool on_time = r.late_p99() <= gen_limit_ms;
      if (on_time || attempt + 1 == kSegmentAttempts) {
        if (!on_time) {
          std::cerr << "nbtool: INVALID run: generator " << r.late_p99()
                    << " ms behind schedule at p99 (limit " << gen_limit_ms << " ms)\n";
        }
        nominal.absorb(r);
        break;
      }
      std::cerr << "nbtool: nominal segment invalid (generator behind); re-run\n";
    }
  }
  std::cerr << "nbtool: nominal samples=" << nominal.latency_ms.size()
            << " p50_ms=" << nominal.p(0.5) << " p99_ms=" << nominal.p(0.99) << "\n";
  if (const int status = run.daemon->stop(SIGTERM, 60.0); status != 0) {
    outcome.fail("noodled exited with status " + std::to_string(status));
  }

  m.set("setup_s", median(run.setup_s), "s");
  m.set("p50_ms", nominal.p(0.5), "ms");
  m.set("p99_ms", nominal.p(0.99), "ms");
  m.set("capacity_rps", search.capacity, "1/s");
  m.set("scan_rps", search.achieved, "1/s");
  m.set("rss_mb", rss, "MiB");
}

void set_trace_metrics(const TraceSample& t, Metrics& m) {
  m.set("serve.queue_wait_p50_us", grouped_quantile(t.queue, 0.5), "us");
  m.set("serve.queue_wait_p99_us", grouped_quantile(t.queue, 0.99), "us");
  m.set("serve.feat_p50_us", grouped_quantile(t.feat, 0.5), "us");
  m.set("serve.infer_p50_us", grouped_quantile(t.infer, 0.5), "us");
  double staged = 0.0, total = 0.0;
  for (std::size_t i = 0; i < t.total.size(); ++i) {
    staged += static_cast<double>(t.queue[i] + t.feat[i] + t.infer[i]);
    total += static_cast<double>(t.total[i]);
  }
  m.set("serve.trace_gap_share", total > 0 ? 1.0 - staged / total : 0.0, "ratio");
  m.set("serve.lookup_p50_us", grouped_quantile(t.lookup, 0.5), "us");
}

void run_tcp_traced(const Args& args, const Workload& w, Metrics& m, Outcome& outcome) {
  TcpRun run = start_tcp(args, 1, false, outcome);
  TcpInputs inputs(args.seed, *run.model, w.working_set);
  TraceSample trace;
  // Trace the hot warm-up: it is the only pass of hot_tcp that scans.
  if (w.working_set > 0) control(run.port, "!trace on", "trace on");
  for (const std::string& line : warm_up(run, inputs, w, args.seed, outcome)) {
    trace.add_column(line);
  }
  if (w.working_set > 0) control(run.port, "!trace off", "trace off");
  const double seconds = args.seconds * kNominalShare;
  const std::uint64_t schedule_seed = args.seed * 31 + 1;
  const StatsText s0 = query_stats(run.port);
  const PhaseResult plain = run_rate(run, inputs, w.nominal_rps, seconds, schedule_seed, false);
  const auto plain_order = inputs.last_order();
  const StatsText s1 = query_stats(run.port);
  reconcile(s0, s1, plain, w.working_set > 0, outcome);
  report_phase("untraced", plain);
  count_phase(plain, true, outcome);

  control(run.port, "!trace on", "trace on");
  const StatsText s2 = query_stats(run.port);
  const PhaseResult traced =
      run_rate(run, inputs, w.nominal_rps, seconds, schedule_seed + 1000, true);
  const StatsText s3 = query_stats(run.port);
  reconcile(s2, s3, traced, w.working_set > 0, outcome);
  report_phase("traced", traced);
  count_phase(traced, true, outcome);
  trace.merge(traced.trace);
  if (w.working_set == 0) {
    // Cold requests never hit: re-send answered designs once to sample the
    // memory cache's lookup stage (closed loop, outside the timed phases).
    const auto& recent = inputs.last_order();  // the traced phase: still cached
    std::vector<std::string> lines, want;
    for (std::size_t i = recent.size() - std::min<std::size_t>(256, recent.size());
         i < recent.size(); ++i) {
      lines.push_back(inputs.line(recent[i].second));
      want.push_back(inputs.expected(recent[i].second));
    }
    const std::vector<std::string> got = send_all(run.port, lines);
    for (const std::string& line : got) trace.add_column(line);
    check_responses(got, want, "cache re-send", outcome);
  }
  const StatsText final_stats = query_stats(run.port);
  if (const int status = run.daemon->stop(SIGTERM, 60.0); status != 0) {
    outcome.fail("noodled exited with status " + std::to_string(status));
  }

  set_trace_metrics(trace, m);
  const auto delta = [&](const char* label, const char* key) {
    return stat(s3, label, key) - stat(s2, label, key);
  };
  const double batches = stat(final_stats, "total", "batches");
  m.set("serve.batch_avg",
        batches > 0 ? stat(final_stats, "total", "scans") / batches : 0.0, "count");
  m.set("serve.cache_hit_ratio",
        delta("total", "requests") > 0
            ? delta("total", "cache_hits") / delta("total", "requests")
            : 0.0,
        "ratio");
  m.set("serve.disk_hit_ratio", 0.0, "ratio");
  m.set("obs.trace_overhead_share", traced.p(0.5) / plain.p(0.5) - 1.0, "ratio");
  m.set("gen.late_p99_ms",
        std::max(plain.late_p99(), traced.late_p99()),
        "ms");
  m.set("fail_ratio",
        static_cast<double>(plain.failed() + traced.failed()) /
            static_cast<double>(std::max<std::size_t>(1, plain.sent + traced.sent)),
        "ratio");
  m.set("net.bytes_tx_per_req",
        (stat(s1, "net", "bytes_tx") - stat(s0, "net", "bytes_tx")) /
            std::max(1.0, stat(s1, "net", "responses") - stat(s0, "net", "responses")),
        "B");
  for (const char* key : {"shed", "timeouts", "protocol_errors", "dropped"}) {
    m.set(std::string("net.") + key, stat(final_stats, "net", key), "count");
  }
  m.set("serve.deadline_timeouts", stat(final_stats, "total", "deadline_timeouts"), "count");
  m.set("serve.parse_failures", stat(final_stats, "total", "parse_failures"), "count");

  // In-process layers, on the workload's own designs, after the load phase.
  std::vector<std::string> sample;
  const std::size_t sample_size = w.working_set > 0 ? w.working_set : 512;
  for (std::size_t i = 0; i < std::min(sample_size, plain_order.size()); ++i) {
    sample.push_back(inputs.source(w.working_set > 0 ? i : plain_order[i].second));
  }
  // Same schedule, same designs, no socket.
  std::vector<std::int64_t> due;
  std::vector<const std::string*> sources;
  for (const auto& [t, id] : plain_order) {
    due.push_back(t);
    sources.push_back(&inputs.source(id));
  }
  std::vector<std::string> warm;
  for (std::size_t i = 0; i < w.working_set; ++i) warm.push_back(inputs.source(i));
  const ReplayResult replay =
      replay_inproc(args.work / "detector.snap", {}, kWorkers, warm, due, sources, 0);
  m.set("serve.inproc_p50_ms", quantile(replay.latency_ms, 0.5), "ms");
  m.set("serve.inproc_p99_ms", quantile(replay.latency_ms, 0.99), "ms");
  m.set("serve.submit_hit_us", replay.submit_hit_us, "us");
  m.set("net.overhead_p50_ms", plain.p(0.5) - quantile(replay.latency_ms, 0.5), "ms");

  time_front_end(sample, m);
  time_core(*run.model, sample, m);
  time_protocol(*run.model, sample, m);
  time_snapshot_load(args.work / "detector.snap", m);
  time_disk_tier(*run.model, args.work / "disk_probe", sample, true, m);
  time_fit(run.model->content_digest(), m);
}

// --------------------------------------------------------------------------
// nightly_stdin
// --------------------------------------------------------------------------

struct Library {
  std::vector<std::string> today, yesterday;  // request lines incl. '\n'
  std::vector<std::string> today_sources, changed_sources;
  std::vector<std::string> expected;          // oracle lines for today
  std::size_t changed = 0;
};

Library make_library(std::uint64_t seed, const noodle::core::FittedModel& model) {
  Library lib;
  DesignPool pool(seed);
  noodle::util::Rng rng(seed ^ 0xd1ffULL);
  std::vector<bool> changed(kLibrary, false);
  lib.changed = static_cast<std::size_t>(kLibrary * kChangedShare);
  // Design 0 never changes: it is the line setup_s waits for, so its
  // verdict is always a disk hit, whatever the seed.
  for (std::size_t picked = 0; picked < lib.changed;) {
    const std::size_t i = 1 + rng() % (kLibrary - 1);
    if (!changed[i]) {
      changed[i] = true;
      ++picked;
    }
  }
  std::size_t old_version = kLibrary;  // yesterday's versions come from further down the pool
  for (std::size_t i = 0; i < kLibrary; ++i) {
    lib.today_sources.push_back(pool.at(i));
    lib.today.push_back("~inline " + pool.at(i) + "\n");
    lib.yesterday.push_back(changed[i] ? "~inline " + pool.at(old_version++) + "\n"
                                       : lib.today.back());
    if (changed[i]) lib.changed_sources.push_back(pool.at(i));
  }
  lib.expected = expected_lines(model, lib.today_sources, kLabel, 0);
  return lib;
}

struct StdinPass {
  double setup_s = 0.0;   ///< launch -> first verdict line
  double scan_s = 0.0;    ///< second line written -> last verdict read
  double flush_ms = 0.0;  ///< stdin closed -> daemon exited (disk flush)
  double rss_mb = 0.0;
  std::size_t stdout_bytes = 0;
  std::vector<double> latency_ms;  ///< per line after the first, written -> verdict read
  std::vector<std::string> responses;
  StatsText stats;
  std::size_t loaded = 0;  ///< disk records indexed at startup
  int status = 0;
};

bool write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t w = ::write(fd, text.data() + off, text.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// One stdin-mode daemon over `dir`: feeds `lines`, reads every verdict.
/// The first line and a `!drain` (stdin mode otherwise prints a verdict
/// only when the next line arrives) go into the pipe at launch, so the
/// first verdict is printed as soon as the daemon has started up and
/// answered it: setup_s holds no hand-off of the harness. The writer then
/// streams the other lines; scan_s runs from its first write.
StdinPass stdin_pass(const Args& args, const fs::path& snapshot, const fs::path& dir,
                     const std::vector<std::string>& lines, bool trace) {
  StdinPass pass;
  std::vector<std::string> flags = daemon_args(snapshot, false);
  flags.insert(flags.end(), {"--disk-cache", dir.string(), "--stats"});
  if (trace) flags.push_back("--trace");
  Daemon daemon(args.noodled, flags, true, true);
  const std::string drain = "!drain\n";
  if (!write_all(daemon.stdin_fd(), lines[0] + drain)) {
    throw std::runtime_error("noodled closed its stdin at launch");
  }

  const std::size_t n = lines.size();
  std::vector<std::atomic<std::int64_t>> written(n);
  std::thread writer;
  const auto start_writer = [&] {
    writer = std::thread([&] {
      for (std::size_t i = 1; i < n; ++i) {
        written[i].store(now_ns(), std::memory_order_release);
        if (!write_all(daemon.stdin_fd(), lines[i])) return;
      }
      // !drain flushes the tail without closing stdin (which would start
      // the exit flush inside the timed window).
      write_all(daemon.stdin_fd(), drain);
    });
  };
  std::int64_t last = 0;
  try {
    std::string rbuf;
    char chunk[1 << 16];
    while (pass.responses.size() < n) {
      const ssize_t got = ::read(daemon.stdout_fd(), chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      const std::int64_t t = now_ns();
      pass.stdout_bytes += static_cast<std::size_t>(got);
      rbuf.append(chunk, static_cast<std::size_t>(got));
      std::size_t start = 0, nl;
      while ((nl = rbuf.find('\n', start)) != std::string::npos) {
        const std::size_t i = pass.responses.size();
        if (i == 0) {
          pass.setup_s = static_cast<double>(t - daemon.launched_ns()) / 1e9;
          start_writer();
        } else {
          pass.latency_ms.push_back(
              static_cast<double>(t - written[i].load(std::memory_order_acquire)) / 1e6);
        }
        pass.responses.push_back(rbuf.substr(start, nl - start));
        start = nl + 1;
        last = t;
      }
      rbuf.erase(0, start);
    }
  } catch (...) {
    daemon.stop(SIGKILL, 5.0);  // the writer's next write fails; then join
    if (writer.joinable()) writer.join();
    throw;
  }
  if (n > 1 && pass.responses.size() == n) {
    pass.scan_s = static_cast<double>(last - written[1].load()) / 1e9;
  }
  pass.rss_mb = daemon.peak_rss_mb();
  if (writer.joinable()) writer.join();
  const std::string ready = daemon.wait_stderr("noodled: disk cache", 60.0);
  const std::size_t at = ready.find("loaded=");
  pass.loaded = at == std::string::npos ? 0 : std::stoul(ready.substr(at + 7));
  const std::int64_t closed = now_ns();
  daemon.close_stdin();
  pass.status = daemon.stop(0, 120.0);
  pass.flush_ms = static_cast<double>(now_ns() - closed) / 1e6;
  pass.stats = parse_stats(daemon.stderr_text());
  return pass;
}

void copy_dir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// Primes yesterday's disk directory until the tier loads every library
/// design at startup (the writer queue drops stores on a fresh directory).
void prime_nightly(const Args& args, const fs::path& snapshot, const fs::path& primed,
                   const Library& lib, Outcome& outcome) {
  fs::remove_all(primed);
  for (int round = 0;; ++round) {
    if (round == 8) {
      outcome.fail("disk tier never loaded the whole library");
      return;
    }
    const StdinPass pass = stdin_pass(args, snapshot, primed, lib.yesterday, false);
    if (pass.loaded == lib.yesterday.size()) return;
    if (pass.status != 0) outcome.fail("noodled priming pass failed");
  }
}

/// Checks one nightly pass: verdicts against the oracle, the daemon's
/// --stats service and disk lines against the library.
void check_pass(const StdinPass& pass, const Library& lib, Outcome& outcome) {
  check_responses(pass.responses, lib.expected, "nightly verdicts", outcome);
  if (pass.status != 0) outcome.fail("noodled exited with status " + std::to_string(pass.status));
  const double n = static_cast<double>(lib.today.size());
  const double changed = static_cast<double>(lib.changed);
  struct Check {
    const char* what;
    double got, want;
  };
  const Check checks[] = {
      {"service requests", stat(pass.stats, "total", "requests"), n},
      {"service disk_hits", stat(pass.stats, "total", "disk_hits"), n - changed},
      {"service scans", stat(pass.stats, "total", "scans"), changed},
      {"disk hits", stat(pass.stats, "disk-cache", "hits"), n - changed},
      {"disk loaded", static_cast<double>(pass.loaded), n},
  };
  for (const Check& c : checks) {
    if (c.got != c.want) {
      outcome.fail(std::string("stats mismatch: ") + c.what + " daemon=" +
                       std::to_string(c.got) + " harness=" + std::to_string(c.want),
                   static_cast<std::size_t>(std::fabs(c.got - c.want)));
    }
  }
}

void run_nightly(const Args& args, bool traced, Metrics& m, Outcome& outcome) {
  const fs::path snapshot = args.work / "nightly.snap";
  const fs::path primed = args.work / "primed";
  const fs::path today = args.work / "today";
  // The oracle needs the snapshot first: fit it, then build the library.
  fs::remove(snapshot);
  {
    Daemon fit(args.noodled, daemon_args(snapshot, false), true, false);
    fit.close_stdin();
    if (fit.stop(0, 300.0) != 0) outcome.fail("noodled fit run failed");
  }
  const auto model = noodle::core::FittedModel::load(snapshot);
  const Library lib = make_library(args.seed, *model);
  prime_nightly(args, snapshot, primed, lib, outcome);

  if (!traced) {
    std::vector<double> setup, rps, latency, rss;
    const std::int64_t stop_at = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    for (std::size_t rep = 0; rep < 3 || (now_ns() < stop_at && rep < 60); ++rep) {
      copy_dir(primed, today);
      const StdinPass pass = stdin_pass(args, snapshot, today, lib.today, false);
      check_pass(pass, lib, outcome);
      setup.push_back(pass.setup_s);
      if (pass.scan_s > 0) rps.push_back(static_cast<double>(lib.today.size() - 1) / pass.scan_s);
      latency.insert(latency.end(), pass.latency_ms.begin(), pass.latency_ms.end());
      rss.push_back(pass.rss_mb);
    }
    std::cerr << "nbtool: nightly passes=" << setup.size() << " latency samples="
              << latency.size() << "\n";
    m.set("setup_s", median(setup), "s");
    m.set("p50_ms", quantile(latency, 0.5), "ms");
    m.set("p99_ms", quantile(latency, 0.99), "ms");
    // A closed loop runs at the front end's capacity: both equal scan_rps.
    m.set("capacity_rps", median(rps), "1/s");
    m.set("scan_rps", median(rps), "1/s");
    m.set("rss_mb", median(rss), "MiB");
    return;
  }

  copy_dir(primed, today);
  const StdinPass plain = stdin_pass(args, snapshot, today, lib.today, false);
  check_pass(plain, lib, outcome);
  copy_dir(primed, today);
  const StdinPass pass = stdin_pass(args, snapshot, today, lib.today, true);
  check_pass(pass, lib, outcome);
  TraceSample trace;
  for (const std::string& line : pass.responses) trace.add_column(line);
  set_trace_metrics(trace, m);
  const double requests = stat(pass.stats, "total", "requests");
  const double batches = stat(pass.stats, "total", "batches");
  m.set("serve.batch_avg", batches > 0 ? stat(pass.stats, "total", "scans") / batches : 0.0,
        "count");
  m.set("serve.cache_hit_ratio", stat(pass.stats, "total", "cache_hits") / requests, "ratio");
  m.set("serve.disk_hit_ratio", stat(pass.stats, "total", "disk_hits") / requests, "ratio");
  m.set("obs.trace_overhead_share",
        quantile(pass.latency_ms, 0.5) / quantile(plain.latency_ms, 0.5) - 1.0, "ratio");
  m.set("gen.late_p99_ms", 0.0, "ms");  // closed loop: no schedule to fall behind
  m.set("fail_ratio", static_cast<double>(outcome.failed) /
                          static_cast<double>(std::max<std::size_t>(1, outcome.attempted)),
        "ratio");
  m.set("net.bytes_tx_per_req", static_cast<double>(plain.stdout_bytes) / requests, "B");
  for (const char* key : {"shed", "timeouts", "protocol_errors", "dropped"}) {
    m.set(std::string("net.") + key, 0.0, "count");  // stdin has no transport layer
  }
  m.set("serve.deadline_timeouts", stat(pass.stats, "total", "deadline_timeouts"), "count");
  m.set("serve.parse_failures", stat(pass.stats, "total", "parse_failures"), "count");

  std::vector<const std::string*> sources;
  for (const std::string& s : lib.today_sources) sources.push_back(&s);
  copy_dir(primed, today);
  const ReplayResult replay =
      replay_inproc(snapshot, today, kWorkers, {}, {}, sources, 256);
  m.set("serve.inproc_p50_ms", quantile(replay.latency_ms, 0.5), "ms");
  m.set("serve.inproc_p99_ms", quantile(replay.latency_ms, 0.99), "ms");
  m.set("serve.submit_hit_us", replay.submit_hit_us, "us");
  m.set("net.overhead_p50_ms",
        quantile(plain.latency_ms, 0.5) - quantile(replay.latency_ms, 0.5), "ms");

  time_front_end(lib.changed_sources, m);
  time_core(*model, lib.changed_sources, m);
  time_protocol(*model, lib.today_sources, m);
  time_snapshot_load(snapshot, m);
  copy_dir(primed, today);
  time_disk_tier(*model, today, lib.today_sources, false, m);
  // The daemon's own exit flush and drop count are the real ones here.
  m.set("serve.disk_flush_ms", plain.flush_ms, "ms");
  const double stores = stat(plain.stats, "disk-cache", "stores");
  const double drops = stat(plain.stats, "disk-cache", "drops");
  m.set("serve.disk_drop_ratio", stores + drops > 0 ? drops / (stores + drops) : 0.0, "ratio");
  time_fit(model->content_digest(), m);
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    const Args args = parse_args(argc, argv);
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
      if (args.workload == w.name) workload = &w;
    }
    if (workload == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
    fs::create_directories(args.work);

    const IdlePoller poller;
    Metrics m;
    Outcome outcome;
    if (workload->tcp) {
      if (args.trace) {
        run_tcp_traced(args, *workload, m, outcome);
      } else {
        run_tcp(args, *workload, m, outcome);
      }
    } else {
      run_nightly(args, args.trace, m, outcome);
    }
    std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::size_t>(1, outcome.attempted)
              << ", \"failed\": " << outcome.failed << ", \"metrics\": " << m.json() << "}"
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nbtool: error: " << e.what() << "\n";
    return 1;
  }
}
