// noodled — the detection daemon: load one or more detector snapshots into
// a serve::ModelRegistry, then serve Trojan scans over newline-delimited
// request lines — on stdin (the default), or over TCP with --listen. The
// end-to-end proof that fitted models are named, versioned, hot-swappable
// artifacts:
//
//   ./build/noodled --snapshot detector.noodle --quick    # first run: fits + saves
//   ls designs/*.v | ./build/noodled --snapshot detector.noodle --stats
//   ./build/noodled --model prod=a.snap --model canary=b.snap
//   ./build/noodled --snapshot detector.noodle --listen 7077   # TCP mode
//
// Request lines (identical grammar on stdin and socket — net/protocol.h is
// the single definition):
//   designs/foo.v          scan with the default model
//   canary:designs/foo.v   scan with model "canary" (latest version)
//   canary@2:designs/foo.v scan with a pinned version
//   ~deadline=250 PATH     answer TIMEOUT instead of scanning if the
//                          verdict cannot dispatch within 250 ms
//   ~inline module m; ...  body is one-line Verilog source, not a path
//   !reload NAME=PATH      hot-swap: load PATH and publish it as the next
//                          version of NAME — in-flight scans are neither
//                          blocked nor re-answered (atomic registry swap)
//   !models                list registered models (and recent reload events)
//   !stats                 print service (and, in TCP mode, transport) counters
//   !metrics               dump the Prometheus text exposition
//                          (exposition lines only: `# ...` and `noodle_...`)
//   !drain                 stdin: block until every pending verdict has been
//                          printed (deterministic cache state for scripts);
//                          socket: begin graceful drain — stop accepting,
//                          finish in-flight work, then exit 0
//   !lint on|off           toggle the static-analysis pass at runtime
//   !trace on|off          toggle the per-verdict trace= timing column
//   !cache persist on|off  toggle the persistent disk verdict tier at
//                          runtime (needs --disk-cache)
//   !store rescan          sweep the --store directory for new snapshot
//                          archives now (SIGHUP does the same)
// Control output goes to stderr on stdin, back to the issuing client on TCP.
//
// Options:
//   --snapshot FILE   load the default model from FILE if it exists;
//                     otherwise fit and save to FILE (train once, scan forever)
//   --model NAME=PATH register snapshot PATH as model NAME (repeatable);
//                     the first --model becomes the default when --snapshot
//                     is absent
//   --refit           fit even when the snapshot exists, then overwrite it
//   --f32             save fitted snapshots with compact f32 weights (~2x smaller)
//   --int8            save fitted snapshots with per-buffer-scaled int8
//                     weights (~8x smaller; verdict-equivalent, not
//                     bit-identical — see DESIGN.md §9)
//   --quick           small training config (CI smoke / demos; seconds not
//                     minutes)
//   --batch N         max requests coalesced per detector batch (default 16)
//   --cache N         LRU verdict-cache capacity (default 4096, 0 disables)
//   --workers N       service worker threads (default 1)
//   --lint            run the lint:: static-analysis pass on every scan and
//                     attach findings to verdict lines as a lint= column
//   --trace           start with the per-verdict trace= column on
//   --metrics-file PATH   dump the Prometheus exposition to PATH every
//                     --metrics-interval seconds, at clean exit, and on
//                     SIGTERM/SIGINT — through util::AtomicFile (write-temp,
//                     fsync, atomic rename), so a scraper never reads a torn
//                     or half-durable file
//   --disk-cache DIR  persistent verdict cache: verdicts are published to
//                     DIR (checksummed record per entry, crash-safe) and
//                     answer in-memory misses across restarts; a fleet can
//                     share one DIR. Disk failure degrades to memory-only —
//                     requests are never failed by persistence
//   --disk-cache-bytes N  byte budget for --disk-cache before LRU records
//                     are evicted (default 64 MiB)
//   --store DIR       content-addressed snapshot store: archives dropped
//                     into DIR as <model>.snap are validated off-thread and
//                     hot-published as the next version of <model>; corrupt
//                     archives are rejected (reload event log) while the old
//                     generation keeps serving. Polled every
//                     --store-interval seconds; SIGHUP rescans immediately
//   --store-interval N  seconds between store polls (default 2)
//   --metrics-interval N  seconds between metrics dumps (default 10; 0 =
//                     only at exit/signal)
//   --seed N          training seed (default 42)
//   --stats           print service counters (total + per model) on exit
//   --demo N          write N demo circuits under ./noodled_demo/ and print
//                     their paths to stdout, then exit — composable with a
//                     serving run:  noodled --demo 6 | noodled --snapshot S
//
// TCP transport (net::ScanServer; see DESIGN.md §11):
//   --listen PORT     serve the request grammar over TCP instead of stdin
//                     (port 0 = kernel-assigned; the bound port is printed
//                     to stderr as "noodled: listening on ADDR:PORT").
//                     SIGTERM/SIGINT begin a graceful drain: stop accepting,
//                     answer BUSY to new work, finish or deadline-out
//                     in-flight scans, flush the disk cache, exit 0
//   --bind ADDR       listen address (default 127.0.0.1)
//   --max-conns N     connection cap; excess accepts close immediately
//                     (default 1024)
//   --max-inflight N  socket scans in flight with the service; excess
//                     answers BUSY instantly (default 256)
//   --deadline-ms N   default per-request deadline for socket requests that
//                     carry no ~deadline= flag (default 0 = none)
//   --net-idle-ms N   evict connections idle this long (default 30000; 0 off)
//   --net-stall-ms N  evict clients whose write buffer made no progress
//                     this long (default 10000; 0 off)
//   --drain-grace-ms N  force-close laggards this long after drain starts
//                     (default 5000)
//
// Verdict line format (tab-separated):
//   TROJAN-INFECTED|trojan-free|parse-error|read-error|no-model|TIMEOUT|
//   BUSY|bad-request
//       p=...  region=...  model=name@version  [lint=...]  [trace=...]  <path>
// The lint= column appears only on verdicts scanned with lint enabled:
// "lint=0" for a clean design, else "lint=N:CODE@line,CODE@line,..."
// (first findings; N is the full count). The trace= column appears only
// while `!trace on` / --trace is active: one field, microseconds per stage,
//   trace=<id>:cache=hit,lookup=2,total=5            (cache hits)
//   trace=<id>:queue=120,feat=63,infer=85,lint=4,total=311
// so `awk -F'\t'` still sees one column per request attribute.

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "lint/lint.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "util/atomic_file.h"
#include "util/csv.h"

using namespace noodle;

namespace {

struct Options {
  std::filesystem::path snapshot;
  std::vector<std::pair<std::string, std::filesystem::path>> models;
  bool refit = false;
  bool f32 = false;
  bool int8 = false;
  bool quick = false;
  bool stats = false;
  bool lint = false;
  bool trace = false;
  std::filesystem::path metrics_file;
  std::size_t metrics_interval = 10;
  std::filesystem::path disk_cache_dir;
  std::uint64_t disk_cache_bytes = 64ull << 20;
  std::filesystem::path store_dir;
  std::size_t store_interval = 2;
  std::size_t batch = 16;
  std::size_t cache = 4096;
  std::size_t workers = 1;
  std::uint64_t seed = 42;
  std::size_t demo = 0;
  int listen = -1;  ///< --listen PORT; -1 = stdin mode, 0 = kernel-assigned
  std::string bind_address = "127.0.0.1";
  std::size_t net_max_conns = 1024;
  std::size_t net_max_inflight = 256;
  std::size_t net_deadline_ms = 0;
  std::size_t net_idle_ms = 30000;
  std::size_t net_stall_ms = 10000;
  std::size_t net_grace_ms = 5000;
};

[[noreturn]] void usage(const char* argv0, const std::string& error = {}) {
  if (!error.empty()) std::cerr << "noodled: " << error << "\n";
  std::cerr << "usage: " << argv0
            << " [--snapshot FILE] [--model NAME=PATH ...] [--refit] [--f32]"
               " [--int8]"
               " [--quick] [--batch N] [--cache N] [--workers N] [--lint]"
               " [--trace] [--metrics-file PATH] [--metrics-interval N]"
               " [--disk-cache DIR] [--disk-cache-bytes N] [--store DIR]"
               " [--store-interval N] [--seed N] [--stats] [--demo N]"
               " [--listen PORT] [--bind ADDR] [--max-conns N]"
               " [--max-inflight N] [--deadline-ms N] [--net-idle-ms N]"
               " [--net-stall-ms N] [--drain-grace-ms N]\n"
               "reads newline-delimited request lines from stdin (or, with"
               " --listen, over TCP):\n"
               "  PATH | MODEL:PATH | MODEL@VER:PATH | ~deadline=MS PATH |"
               " ~inline RTL | !reload NAME=PATH |"
               " !models | !stats | !metrics | !drain | !lint on|off |"
               " !trace on|off | !cache persist on|off | !store rescan\n";
  std::exit(2);
}

/// "NAME=PATH" → {NAME, PATH}; nullopt when either side is empty. Shared
/// by --model flags and !reload control lines so the grammar can't drift.
std::optional<std::pair<std::string, std::filesystem::path>> try_parse_name_path(
    const std::string& value) {
  const std::size_t eq = value.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
    return std::nullopt;
  }
  return {{value.substr(0, eq), std::filesystem::path(value.substr(eq + 1))}};
}

Options parse_options(int argc, char** argv) {
  Options options;
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--snapshot") {
        options.snapshot = next_value(i);
      } else if (arg == "--model") {
        const std::string value = next_value(i);
        const auto model = try_parse_name_path(value);
        if (!model) usage(argv[0], "--model wants NAME=PATH, got '" + value + "'");
        options.models.push_back(*model);
      } else if (arg == "--refit") {
        options.refit = true;
      } else if (arg == "--f32") {
        options.f32 = true;
      } else if (arg == "--int8") {
        options.int8 = true;
      } else if (arg == "--quick") {
        options.quick = true;
      } else if (arg == "--stats") {
        options.stats = true;
      } else if (arg == "--lint") {
        options.lint = true;
      } else if (arg == "--trace") {
        options.trace = true;
      } else if (arg == "--metrics-file") {
        options.metrics_file = next_value(i);
      } else if (arg == "--metrics-interval") {
        options.metrics_interval = std::stoul(next_value(i));
      } else if (arg == "--disk-cache") {
        options.disk_cache_dir = next_value(i);
      } else if (arg == "--disk-cache-bytes") {
        options.disk_cache_bytes = std::stoull(next_value(i));
      } else if (arg == "--store") {
        options.store_dir = next_value(i);
      } else if (arg == "--store-interval") {
        options.store_interval = std::stoul(next_value(i));
      } else if (arg == "--batch") {
        options.batch = std::stoul(next_value(i));
      } else if (arg == "--cache") {
        options.cache = std::stoul(next_value(i));
      } else if (arg == "--workers") {
        options.workers = std::stoul(next_value(i));
      } else if (arg == "--seed") {
        options.seed = std::stoull(next_value(i));
      } else if (arg == "--demo") {
        options.demo = std::stoul(next_value(i));
      } else if (arg == "--listen") {
        const unsigned long port = std::stoul(next_value(i));
        if (port > 65535) usage(argv[0], "--listen wants a port (0-65535)");
        options.listen = static_cast<int>(port);
      } else if (arg == "--bind") {
        options.bind_address = next_value(i);
      } else if (arg == "--max-conns") {
        options.net_max_conns = std::stoul(next_value(i));
      } else if (arg == "--max-inflight") {
        options.net_max_inflight = std::stoul(next_value(i));
      } else if (arg == "--deadline-ms") {
        options.net_deadline_ms = std::stoul(next_value(i));
      } else if (arg == "--net-idle-ms") {
        options.net_idle_ms = std::stoul(next_value(i));
      } else if (arg == "--net-stall-ms") {
        options.net_stall_ms = std::stoul(next_value(i));
      } else if (arg == "--drain-grace-ms") {
        options.net_grace_ms = std::stoul(next_value(i));
      } else {
        usage(argv[0], "unknown option " + arg);
      }
    } catch (const std::exception&) {  // stoul: invalid_argument or out_of_range
      usage(argv[0], "bad numeric value for " + arg);
    }
  }
  if (options.batch == 0) usage(argv[0], "--batch must be positive");
  if (options.workers == 0) usage(argv[0], "--workers must be positive");
  if (options.f32 && options.int8) usage(argv[0], "--f32 and --int8 are exclusive");
  if (options.listen >= 0 && options.net_max_conns == 0) {
    usage(argv[0], "--max-conns must be positive");
  }
  if (options.listen >= 0 && options.net_max_inflight == 0) {
    usage(argv[0], "--max-inflight must be positive");
  }
  return options;
}

core::DetectorConfig training_config(const Options& options) {
  core::DetectorConfig config;
  config.seed = options.seed;
  if (options.quick) {
    config.gan_target_per_class = 40;
    config.gan.epochs = 30;
    config.fusion.train.epochs = 12;
    config.fusion.train.validation_fraction = 0.0;
  }
  return config;
}

/// Loads or fits the default model and publishes it into the registry.
void publish_default(serve::ModelRegistry& registry, const Options& options) {
  const bool can_load = !options.snapshot.empty() && !options.refit &&
                        std::filesystem::exists(options.snapshot);
  if (can_load) {
    std::cerr << "noodled: loading snapshot " << options.snapshot.string() << "\n";
    registry.reload_from(serve::kDefaultModelName, options.snapshot);
    return;
  }
  std::cerr << "noodled: fitting detector (seed " << options.seed
            << (options.quick ? ", quick config" : "") << ")...\n";
  core::NoodleDetector detector(training_config(options));
  if (options.quick) {
    data::CorpusSpec spec;
    spec.design_count = 96;
    spec.infected_fraction = 0.35;
    spec.seed = options.seed;
    detector.fit(data::build_corpus(spec));
  } else {
    detector.fit_default();
  }
  std::shared_ptr<const core::FittedModel> model = detector.fitted_model();
  if (!options.snapshot.empty()) {
    nn::WeightPrecision precision = nn::WeightPrecision::F64;
    const char* note = "";
    if (options.f32) {
      precision = nn::WeightPrecision::F32;
      note = " (f32 weights)";
    } else if (options.int8) {
      precision = nn::WeightPrecision::I8;
      note = " (int8 weights)";
    }
    model->save(options.snapshot, precision);
    std::cerr << "noodled: saved snapshot to " << options.snapshot.string() << note
              << "\n";
  }
  registry.publish(serve::kDefaultModelName, std::move(model), options.snapshot);
}

void print_stats_line(std::ostream& out, const char* label,
                      const serve::ServiceStats& stats) {
  out << "noodled stats[" << label << "]: requests=" << stats.requests
      << " cache_hits=" << stats.cache_hits << " disk_hits=" << stats.disk_hits
      << " scans=" << stats.scans << " batches=" << stats.batches
      << " max_batch=" << stats.max_batch_size
      << " parse_failures=" << stats.parse_failures
      << " model_misses=" << stats.model_misses
      << " deadline_timeouts=" << stats.deadline_timeouts
      << " avg_batch=" << util::format_fixed(stats.average_batch_size(), 2)
      << " avg_scan_us=" << util::format_fixed(stats.average_scan_micros(), 1);
  if (stats.lint_runs > 0) {
    out << " lint_runs=" << stats.lint_runs
        << " lint_findings=" << stats.lint_findings;
    for (std::size_t r = 0; r < lint::kRuleCount; ++r) {
      if (stats.lint_by_rule[r] == 0) continue;
      out << " lint[" << lint::rule_info(static_cast<lint::RuleId>(r)).code
          << "]=" << stats.lint_by_rule[r];
    }
  }
  out << "\n";
}

void print_stats(std::ostream& out, const serve::DetectionService& service,
                 const serve::SnapshotStore* store = nullptr,
                 const net::ScanServer* server = nullptr) {
  print_stats_line(out, "total", service.stats());
  for (const auto& [name, stats] : service.stats_by_model()) {
    print_stats_line(out, name.c_str(), stats);
  }
  if (service.disk_cache() != nullptr) {
    // One stats() call — the identical snapshot the Prometheus mirror
    // reads, so `!stats` and `!metrics` can never disagree on the tier.
    const serve::DiskCacheStats disk = service.disk_cache_stats();
    out << "noodled stats[disk-cache]: hits=" << disk.hits
        << " misses=" << disk.misses << " stores=" << disk.stores
        << " drops=" << disk.drops << " corrupt=" << disk.corrupt
        << " evictions=" << disk.evictions << " collisions=" << disk.collisions
        << " temps_swept=" << disk.temps_swept << " loaded=" << disk.loaded
        << " entries=" << disk.entries << " bytes=" << disk.bytes
        << " degraded=" << (disk.degraded ? 1 : 0)
        << " enabled=" << (disk.enabled ? 1 : 0) << "\n";
  }
  if (store != nullptr) {
    const serve::SnapshotStoreStats s = store->stats();
    out << "noodled stats[snapshot-store]: scans=" << s.scans
        << " accepted=" << s.accepted << " rejected=" << s.rejected;
    if (!s.last_error.empty()) out << " last_error=" << s.last_error;
    out << "\n";
  }
  if (server != nullptr) {
    const net::ServerStats n = server->stats();
    out << "noodled stats[net]: accepted=" << n.accepted
        << " dropped=" << n.dropped << " requests=" << n.requests
        << " responses=" << n.responses << " shed=" << n.shed
        << " timeouts=" << n.timeouts << " protocol_errors=" << n.protocol_errors
        << " bytes_rx=" << n.bytes_rx << " bytes_tx=" << n.bytes_tx
        << " connections=" << n.connections << " inflight=" << n.inflight << "\n";
  }
}

void print_models(std::ostream& out, const serve::ModelRegistry& registry) {
  for (const serve::ModelHandle& handle : registry.catalog()) {
    out << "noodled: model " << handle->label()
        << " fusion=" << handle->model().winning_fusion();
    if (!handle->source().empty()) out << " source=" << handle->source().string();
    out << "\n";
  }
  const std::vector<serve::ReloadEvent> events = registry.reload_events();
  constexpr std::size_t kMaxShown = 8;
  const std::size_t shown = std::min(events.size(), kMaxShown);
  for (std::size_t i = events.size() - shown; i < events.size(); ++i) {
    const serve::ReloadEvent& event = events[i];
    const auto epoch_seconds = std::chrono::duration_cast<std::chrono::seconds>(
                                   event.when.time_since_epoch())
                                   .count();
    out << "noodled: reload t=" << epoch_seconds << " " << event.name;
    if (event.ok) {
      out << "@" << event.version << " ok load_us=" << event.load_micros;
    } else {
      out << " FAILED load_us=" << event.load_micros << " error=" << event.error;
    }
    out << "\n";
  }
}

/// Writes the Prometheus exposition to `path` through util::AtomicFile
/// (write-temp in the same directory, fsync, atomic rename): a scraper
/// polling the file either sees the previous complete dump or this one,
/// never a torn — or, after a power loss, half-durable — write.
bool dump_metrics(serve::DetectionService& service, const std::filesystem::path& path) {
  std::ostringstream exposition;
  service.render_prometheus(exposition);
  util::AtomicFile file(path);
  if (!file.write(exposition.str())) return false;
  return !file.commit();
}

/// Everything a "!..." control line may touch, for both serving modes.
/// `server` is null on stdin; `trace_on` is the live toggle (the socket
/// mode syncs it into ScanServer after each control line).
struct ControlContext {
  serve::DetectionService& service;
  serve::ModelRegistry& registry;
  serve::SnapshotStore* store = nullptr;
  net::ScanServer* server = nullptr;
  bool trace_on = false;
};

/// Handles every control line except "!drain" (whose meaning is per-mode:
/// the stdin loop flushes its pending deque, the server runs its drain
/// state machine before this is ever called). Output goes to `out` —
/// stderr on stdin, the response buffer for the issuing TCP client.
/// Returns false for malformed or failed controls.
bool handle_control_line(const std::string& line, ControlContext& ctx,
                         std::ostream& out) {
  std::istringstream control(line);
  std::string command;
  control >> command;
  if (command == "!reload") {
    std::string value;
    control >> value;
    const auto target = try_parse_name_path(value);
    if (!target) {
      out << "noodled: !reload wants NAME=PATH, got '" << value << "'\n";
      return false;
    }
    try {
      const serve::ModelHandle handle =
          ctx.service.reload(target->first, target->second);
      out << "noodled: reloaded " << handle->label() << " from "
          << handle->source().string() << "\n";
    } catch (const std::exception& e) {
      out << "noodled: reload failed: " << e.what() << "\n";
      return false;
    }
  } else if (command == "!models") {
    print_models(out, ctx.registry);
  } else if (command == "!stats") {
    print_stats(out, ctx.service, ctx.store, ctx.server);
  } else if (command == "!cache") {
    std::string subject, value;
    control >> subject >> value;
    if (subject != "persist" || (value != "on" && value != "off")) {
      out << "noodled: !cache wants 'persist on|off', got '" << line << "'\n";
      return false;
    }
    if (ctx.service.disk_cache() == nullptr) {
      out << "noodled: no disk cache configured (--disk-cache DIR)\n";
      return false;
    }
    ctx.service.disk_cache()->set_enabled(value == "on");
    out << "noodled: cache persist " << value << "\n";
  } else if (command == "!store") {
    std::string value;
    control >> value;
    if (value != "rescan") {
      out << "noodled: !store wants 'rescan', got '" << line << "'\n";
      return false;
    }
    if (ctx.store == nullptr) {
      out << "noodled: no snapshot store configured (--store DIR)\n";
      return false;
    }
    const std::size_t published = ctx.store->rescan_now();
    out << "noodled: store rescan published=" << published << "\n";
  } else if (command == "!metrics") {
    ctx.service.render_prometheus(out);
  } else if (command == "!trace") {
    std::string value;
    control >> value;
    if (value != "on" && value != "off") {
      out << "noodled: !trace wants on|off, got '" << value << "'\n";
      return false;
    }
    ctx.trace_on = value == "on";
    out << "noodled: trace " << value << "\n";
  } else if (command == "!lint") {
    std::string value;
    control >> value;
    if (value != "on" && value != "off") {
      out << "noodled: !lint wants on|off, got '" << value << "'\n";
      return false;
    }
    ctx.service.set_lint(value == "on");
    out << "noodled: lint " << value << "\n";
  } else {
    out << "noodled: unknown control line '" << line << "'\n";
    return false;
  }
  return true;
}

/// The stdin serving loop: request lines in, verdict lines out, plus the
/// SignalPipe watcher thread (periodic + signal-triggered metrics dumps,
/// SIGHUP store rescans). Returns the failure count.
int run_stdin_mode(const Options& options, serve::DetectionService& service,
                   serve::ModelRegistry& registry, serve::SnapshotStore* store,
                   const std::string& default_model) {
  // The signal-watcher thread: both serving modes observe signals through
  // the one net::SignalPipe funnel — the handler writes a byte, and this
  // thread (the event loop, in TCP mode) does the work as ordinary code.
  // SIGTERM/SIGINT dump metrics, restore SIG_DFL, and re-raise, so the
  // process still dies as expected; SIGHUP rescans the snapshot store.
  std::atomic<bool> watcher_stop{false};
  std::thread watcher_thread;
  if (!options.metrics_file.empty() || store != nullptr) {
    net::SignalPipe& signals = net::SignalPipe::instance();
    if (!options.metrics_file.empty()) {
      signals.hook(SIGTERM);
      signals.hook(SIGINT);
    }
    if (store != nullptr) signals.hook(SIGHUP);
    watcher_thread = std::thread([&service, &watcher_stop, &options, store] {
      net::SignalPipe& signals = net::SignalPipe::instance();
      using clock = std::chrono::steady_clock;
      auto last_dump = clock::now();
      while (!watcher_stop.load(std::memory_order_relaxed)) {
        struct pollfd pfd = {signals.read_fd(), POLLIN, 0};
        ::poll(&pfd, 1, 100);
        int fatal = 0;
        signals.drain([&](int signo) {
          if (signo == SIGHUP) {
            if (store != nullptr) {
              std::cerr << "noodled: SIGHUP — rescanning snapshot store\n";
              store->poke();
            }
          } else {
            fatal = signo;
          }
        });
        if (fatal != 0) {
          dump_metrics(service, options.metrics_file);
          signals.unhook(fatal);
          std::raise(fatal);
          return;
        }
        if (!options.metrics_file.empty() && options.metrics_interval > 0 &&
            clock::now() - last_dump >=
                std::chrono::seconds(options.metrics_interval)) {
          if (!dump_metrics(service, options.metrics_file)) {
            std::cerr << "noodled: metrics dump to "
                      << options.metrics_file.string() << " failed\n";
          }
          last_dump = clock::now();
        }
      }
    });
  }

  ControlContext ctx{service, registry, store, nullptr, options.trace};
  int failures = 0;

  struct Pending {
    std::string echo;    ///< path, or "<inline>" for inline RTL
    std::string model;   ///< requested spec; verdict lines prefer served_by
    std::string status;  ///< early failure status ("read-error", "bad-request")
    std::future<core::DetectionReport> verdict;
  };
  std::deque<Pending> pending;

  // Verdicts stream out in input order as they complete, so a producer
  // that keeps the pipe open sees results live instead of at EOF.
  const auto print_front = [&] {
    Pending& request = pending.front();
    if (!request.status.empty()) {
      std::cout << net::protocol::status_line(request.status.c_str(), request.model,
                                              request.echo)
                << "\n";
      ++failures;
    } else {
      try {
        const core::DetectionReport report = request.verdict.get();
        std::cout << net::protocol::verdict_line(report, request.echo, ctx.trace_on)
                  << "\n";
      } catch (const serve::DeadlineError&) {
        // The request asked for a deadline and missed it — expected
        // behaviour under load, not a serving failure.
        std::cout << net::protocol::status_line("TIMEOUT", request.model,
                                                request.echo)
                  << "\n";
      } catch (const serve::RegistryError& e) {
        std::cout << net::protocol::status_line("no-model", request.model,
                                                request.echo)
                  << "\n";
        std::cerr << "noodled: " << request.echo << ": " << e.what() << "\n";
        ++failures;
      } catch (const std::exception& e) {
        std::cout << net::protocol::status_line("parse-error", request.model,
                                                request.echo)
                  << "\n";
        std::cerr << "noodled: " << request.echo << ": " << e.what() << "\n";
        ++failures;
      }
    }
    std::cout.flush();
    pending.pop_front();
  };
  const auto flush_ready = [&] {
    while (!pending.empty() &&
           (!pending.front().status.empty() ||
            pending.front().verdict.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)) {
      print_front();
    }
  };

  // Blocking backpressure bound: never hold more in-flight requests than a
  // few dispatch rounds' worth, so arbitrarily long input stays bounded.
  const std::size_t max_pending =
      std::max<std::size_t>(256, options.batch * options.workers * 4);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;

    if (line.front() == '!') {  // control line
      std::istringstream control(line);
      std::string command;
      control >> command;
      if (command == "!drain") {
        while (!pending.empty()) print_front();
        continue;
      }
      if (!handle_control_line(line, ctx, std::cerr)) ++failures;
      continue;
    }

    const net::protocol::RequestLine request_line = net::protocol::parse_request_line(
        line, [&registry](const std::string& name) {
          return static_cast<bool>(registry.try_resolve(serve::ModelSpec{name, 0}));
        });
    Pending request;
    request.model = request_line.spec.empty() ? default_model : request_line.spec;
    if (!request_line.error.empty()) {
      request.echo = line;
      request.status = "bad-request";
      std::cerr << "noodled: bad request: " << request_line.error << "\n";
    } else if (request_line.inline_rtl) {
      request.echo = net::protocol::kInlineEcho;
      request.verdict = service.submit(request.model, request_line.body,
                                       serve::SubmitOptions{request_line.deadline});
    } else {
      request.echo = request_line.body;
      std::ifstream file(request_line.body);
      if (!file) {
        request.status = "read-error";
      } else {
        std::ostringstream source;
        source << file.rdbuf();
        request.verdict = service.submit(request.model, source.str(),
                                         serve::SubmitOptions{request_line.deadline});
      }
    }
    pending.push_back(std::move(request));
    flush_ready();
    while (pending.size() >= max_pending) print_front();
  }
  while (!pending.empty()) print_front();

  watcher_stop.store(true, std::memory_order_relaxed);
  if (watcher_thread.joinable()) watcher_thread.join();
  return failures;
}

/// The TCP serving mode: one net::EventLoop thread runs the ScanServer
/// until a graceful drain (SIGTERM/SIGINT/!drain) completes. Returns the
/// control-failure count (request failures are the clients' to observe).
int run_socket_mode(const Options& options, serve::DetectionService& service,
                    serve::ModelRegistry& registry, serve::SnapshotStore* store,
                    const std::string& /*default_model*/) {
  net::EventLoop loop;
  net::ServerConfig config;
  config.bind_address = options.bind_address;
  config.port = static_cast<std::uint16_t>(options.listen);
  config.max_connections = options.net_max_conns;
  config.max_inflight = options.net_max_inflight;
  config.default_deadline = std::chrono::milliseconds(options.net_deadline_ms);
  config.idle_timeout = std::chrono::milliseconds(options.net_idle_ms);
  config.write_stall_timeout = std::chrono::milliseconds(options.net_stall_ms);
  config.drain_grace = std::chrono::milliseconds(options.net_grace_ms);
  net::ScanServer server(loop, service, config);
  server.set_trace(options.trace);

  ControlContext ctx{service, registry, store, &server, options.trace};
  int failures = 0;
  server.set_control_handler([&](const std::string& line) {
    std::ostringstream out;
    if (!handle_control_line(line, ctx, out)) ++failures;
    server.set_trace(ctx.trace_on);
    return out.str();
  });
  server.set_on_drained([&loop] { loop.stop(); });

  // Same SignalPipe funnel as stdin mode, observed by epoll instead of a
  // watcher thread: SIGTERM/SIGINT begin the drain (and the loop exits
  // when it completes), SIGHUP rescans the snapshot store.
  const auto drain_on_signal = [&server](int signo) {
    std::cerr << "noodled: signal " << signo << " — draining\n";
    server.begin_drain();
  };
  loop.watch_signal(SIGTERM, drain_on_signal);
  loop.watch_signal(SIGINT, drain_on_signal);
  if (store != nullptr) {
    loop.watch_signal(SIGHUP, [store](int) {
      std::cerr << "noodled: SIGHUP — rescanning snapshot store\n";
      store->poke();
    });
  }

  // Periodic metrics dumps ride the loop's own timer wheel; the tick
  // re-arms itself. `dump_tick` outlives loop.run(), so the callback's
  // pointer into it stays valid without a shared_ptr self-cycle.
  auto dump_tick = std::make_shared<std::function<void()>>();
  if (!options.metrics_file.empty() && options.metrics_interval > 0) {
    const auto interval = std::chrono::seconds(options.metrics_interval);
    std::function<void()>* tick = dump_tick.get();
    *dump_tick = [&service, &options, &loop, tick, interval] {
      if (!dump_metrics(service, options.metrics_file)) {
        std::cerr << "noodled: metrics dump to " << options.metrics_file.string()
                  << " failed\n";
      }
      loop.add_timer(interval, *tick);
    };
    loop.add_timer(interval, *dump_tick);
  }

  try {
    server.start();
  } catch (const std::system_error& e) {
    std::cerr << "noodled: cannot listen on " << options.bind_address << ":"
              << options.listen << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "noodled: listening on " << options.bind_address << ":"
            << server.port() << "\n";
  loop.run();

  const net::ServerStats n = server.stats();
  std::cerr << "noodled: drained — accepted=" << n.accepted
            << " requests=" << n.requests << " responses=" << n.responses
            << " shed=" << n.shed << " timeouts=" << n.timeouts << "\n";
  if (options.stats) print_stats(std::cerr, service, store, &server);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);

  if (options.demo > 0) {
    const std::filesystem::path dir = "noodled_demo";
    std::filesystem::create_directories(dir);
    data::CorpusSpec spec;
    spec.design_count = options.demo;
    spec.infected_fraction = 0.25;
    spec.seed = options.seed;
    for (const auto& circuit : data::build_corpus(spec)) {
      const auto path = dir / (circuit.name + (circuit.infected ? ".infected.v" : ".v"));
      std::ofstream out(path);
      out << circuit.verilog;
      std::cout << path.string() << "\n";
    }
    return 0;
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  try {
    for (const auto& [name, path] : options.models) {
      registry->reload_from(name, path);
      std::cerr << "noodled: loaded model " << name << " from " << path.string()
                << "\n";
    }
    if (!options.snapshot.empty() || options.models.empty()) {
      publish_default(*registry, options);
    }
  } catch (const serve::SnapshotError& e) {
    std::cerr << "noodled: snapshot rejected: " << e.what()
              << " (use --refit to retrain)\n";
    return 1;
  } catch (const serve::RegistryError& e) {
    std::cerr << "noodled: " << e.what() << "\n";
    return 1;
  }
  const std::string default_model = !options.snapshot.empty() || options.models.empty()
                                        ? std::string(serve::kDefaultModelName)
                                        : options.models.front().first;
  print_models(std::cerr, *registry);
  std::cerr << "noodled: serving (default model " << default_model << ")\n";

  serve::ServiceConfig service_config;
  service_config.max_batch = options.batch;
  service_config.cache_capacity = options.cache;
  service_config.workers = options.workers;
  service_config.lint = options.lint;
  service_config.disk_cache.directory = options.disk_cache_dir;
  service_config.disk_cache.max_bytes = options.disk_cache_bytes;
  serve::DetectionService service(registry, default_model, service_config);
  if (service.disk_cache() != nullptr) {
    const serve::DiskCacheStats disk = service.disk_cache_stats();
    std::cerr << "noodled: disk cache " << options.disk_cache_dir.string()
              << " loaded=" << disk.loaded << " corrupt=" << disk.corrupt
              << " temps_swept=" << disk.temps_swept
              << (disk.degraded ? " DEGRADED" : "") << "\n";
  }

  // The snapshot-store watcher: archives dropped into --store publish as new
  // model versions; validation failures are logged and the old generation
  // keeps serving. The first sweep runs before serving starts, so archives
  // already in the store are live for the first request line.
  std::unique_ptr<serve::SnapshotStore> store;
  if (!options.store_dir.empty()) {
    serve::SnapshotStoreConfig store_config;
    store_config.directory = options.store_dir;
    store_config.poll_interval = std::chrono::seconds(options.store_interval);
    store = std::make_unique<serve::SnapshotStore>(store_config, *registry,
                                                   &service.metrics());
    const std::size_t published = store->rescan_now();
    std::cerr << "noodled: snapshot store " << options.store_dir.string()
              << " published=" << published << "\n";
    store->start();
  }

  int failures =
      options.listen >= 0
          ? run_socket_mode(options, service, *registry, store.get(), default_model)
          : run_stdin_mode(options, service, *registry, store.get(), default_model);

  if (store != nullptr) store->stop();
  if (!options.metrics_file.empty()) {
    // Final dump at clean exit, so short-lived runs leave a complete
    // scrape behind even when no interval ever elapsed.
    if (!dump_metrics(service, options.metrics_file)) {
      std::cerr << "noodled: metrics dump to " << options.metrics_file.string()
                << " failed\n";
      ++failures;
    }
  }

  if (service.disk_cache() != nullptr) {
    // Orderly exit gets queued verdicts onto disk; a crash would drop them
    // (by design), but there is no reason to imitate one here.
    service.disk_cache()->flush();
  }
  if (options.stats && options.listen < 0) print_stats(std::cerr, service, store.get());
  return failures == 0 ? 0 : 1;
}
