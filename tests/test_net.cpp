// Tests for the TCP transport: net::EventLoop semantics (timer wheel,
// cross-thread post, signal fan-in), and net::ScanServer end-to-end over
// real loopback sockets — bit-identical serving vs direct submits, strict
// per-connection FIFO ordering, reload-under-load generation consistency,
// BUSY admission control at 4x overload, deadline TIMEOUT propagation,
// idle-client eviction, and the graceful-drain state machine.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "data/dataset.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/service.h"
#include "util/csv.h"

namespace noodle {
namespace {

using namespace std::chrono_literals;

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, TimersFireOnceAndCancelledTimersNever) {
  net::EventLoop loop;
  int fired = 0;
  int cancelled_fired = 0;
  loop.add_timer(10ms, [&] { ++fired; });
  const net::EventLoop::TimerId id = loop.add_timer(10ms, [&] { ++cancelled_fired; });
  loop.cancel_timer(id);
  loop.add_timer(80ms, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cancelled_fired, 0);
}

TEST(EventLoopTest, TimerNeverFiresEarlyAndParksAcrossWheelRevolutions) {
  // 2700ms > the wheel's 512 x 5ms = 2560ms horizon, so this timer must
  // park with a rounds counter and survive a full revolution.
  net::EventLoop loop;
  const auto t0 = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point fired_at;
  loop.add_timer(2700ms, [&] {
    fired_at = std::chrono::steady_clock::now();
    loop.stop();
  });
  loop.run();
  EXPECT_GE(fired_at - t0, 2700ms);
  EXPECT_LT(fired_at - t0, 10s);
}

TEST(EventLoopTest, PostedTasksRunOnTheLoopThread) {
  net::EventLoop loop;
  std::thread::id loop_tid;
  std::thread::id runner_tid;
  loop.post([&] { loop_tid = std::this_thread::get_id(); });
  std::thread runner([&] {
    runner_tid = std::this_thread::get_id();
    loop.run();
  });
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) loop.post([&] { ++ran; });
  loop.post([&] { loop.stop(); });
  runner.join();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(loop_tid, runner_tid);
}

TEST(EventLoopTest, WatchedSignalsDeliverAsLoopCallbacks) {
  net::EventLoop loop;
  std::atomic<int> got{0};
  std::thread::id cb_tid;
  std::thread::id runner_tid;
  loop.watch_signal(SIGUSR1, [&](int signo) {
    got = signo;
    cb_tid = std::this_thread::get_id();
    loop.stop();
  });
  std::thread runner([&] {
    runner_tid = std::this_thread::get_id();
    loop.run();
  });
  std::raise(SIGUSR1);  // handler writes to the pipe; the LOOP observes it
  runner.join();
  EXPECT_EQ(got.load(), SIGUSR1);
  EXPECT_EQ(cb_tid, runner_tid);
  net::SignalPipe::instance().unhook(SIGUSR1);
}

// --- socket test plumbing ----------------------------------------------------

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t put = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

/// A blocking line-oriented test client with read deadlines, so a server
/// bug can never hang the suite.
struct LineClient {
  net::Fd fd;
  std::string acc;

  bool connect(std::uint16_t port) {
    std::error_code ec;
    fd = net::connect_tcp("127.0.0.1", port, ec);
    return static_cast<bool>(fd);
  }
  bool send_line(const std::string& line) { return send_all(fd.get(), line + "\n"); }

  std::optional<std::string> read_line(int timeout_ms = 30000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t pos = acc.find('\n');
      if (pos != std::string::npos) {
        std::string line = acc.substr(0, pos);
        acc.erase(0, pos + 1);
        return line;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      struct pollfd pfd = {fd.get(), POLLIN, 0};
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      const int ready = ::poll(&pfd, 1, std::max(1, wait_ms));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (ready == 0) return std::nullopt;
      char buf[4096];
      const ssize_t got = ::recv(fd.get(), buf, sizeof buf, 0);
      if (got < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (got == 0) return std::nullopt;  // EOF with no complete line
      acc.append(buf, static_cast<std::size_t>(got));
    }
  }

  /// True once the peer closes (EOF or RST) within the deadline.
  bool wait_closed(int timeout_ms = 30000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      struct pollfd pfd = {fd.get(), POLLIN, 0};
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      const int ready = ::poll(&pfd, 1, std::max(1, wait_ms));
      if (ready < 0 && errno != EINTR) return true;
      if (ready <= 0) continue;
      char buf[4096];
      const ssize_t got = ::recv(fd.get(), buf, sizeof buf, 0);
      if (got == 0) return true;
      if (got < 0) return errno != EINTR;  // RST counts as closed
      acc.append(buf, static_cast<std::size_t>(got));
    }
  }
};

/// Runs a ScanServer on its own loop thread. `configure` runs before the
/// loop starts (the window where loop-thread-only setters are legal from
/// the test thread). Drain completion stops the loop.
struct ServerHarness {
  net::EventLoop loop;
  net::ScanServer server;
  std::thread thread;

  ServerHarness(serve::DetectionService& service, net::ServerConfig config,
                const std::function<void(net::ScanServer&)>& configure = {})
      : server(loop, service, std::move(config)) {
    if (configure) configure(server);
    server.set_on_drained([this] { loop.stop(); });
    server.start();
    thread = std::thread([this] { loop.run(); });
  }
  ~ServerHarness() { stop(); }

  void stop() {
    if (thread.joinable()) {
      loop.stop();
      thread.join();
    }
  }
  std::uint16_t port() const { return server.port(); }
};

// --- ScanServer fixture ------------------------------------------------------

// Two genuinely different fitted generations, their snapshots, request
// files on disk, and per-request reference verdict-line prefixes. Fitting
// is the expensive part; everything is built once per suite.
class ScanServerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto fit = [](std::uint64_t seed, std::size_t designs) {
      core::NoodleDetector detector(quick_config(seed));
      detector.fit(data::build_corpus(quick_corpus(seed, designs)));
      return detector.fitted_model();
    };
    const std::shared_ptr<const core::FittedModel> gen_a = fit(7, 72);
    const std::shared_ptr<const core::FittedModel> gen_b = fit(11, 64);

    dir_ = std::filesystem::temp_directory_path() / "noodle_net_tests";
    std::filesystem::create_directories(dir_);
    path_a_ = dir_ / "gen_a.snap";
    path_b_ = dir_ / "gen_b.snap";
    gen_a->save(path_a_);
    gen_b->save(path_b_);

    files_ = new std::vector<std::string>();
    prefix_a_ = new std::vector<std::string>();
    prefix_b_ = new std::vector<std::string>();
    for (const auto& circuit : data::build_corpus(quick_corpus(19, 8))) {
      const std::filesystem::path file =
          dir_ / ("req_" + std::to_string(files_->size()) + ".v");
      std::ofstream out(file);
      out << circuit.verilog;
      files_->push_back(file.string());
      const data::FeatureSample sample = data::featurize(circuit);
      prefix_a_->push_back(line_prefix(gen_a->scan_features(sample)));
      prefix_b_->push_back(line_prefix(gen_b->scan_features(sample)));
    }
  }

  static void TearDownTestSuite() {
    delete prefix_b_;
    prefix_b_ = nullptr;
    delete prefix_a_;
    prefix_a_ = nullptr;
    delete files_;
    files_ = nullptr;
    std::filesystem::remove_all(dir_);
  }

  static core::DetectorConfig quick_config(std::uint64_t seed) {
    core::DetectorConfig config;
    config.seed = seed;
    config.gan_target_per_class = 30;
    config.gan.epochs = 20;
    config.fusion.train.epochs = 8;
    config.fusion.train.validation_fraction = 0.0;
    return config;
  }

  static data::CorpusSpec quick_corpus(std::uint64_t seed, std::size_t designs) {
    data::CorpusSpec spec;
    spec.design_count = designs;
    spec.infected_fraction = 0.35;
    spec.seed = seed;
    return spec;
  }

  /// Everything of the expected verdict line up to (and including)
  /// "model=" — label, probability, and region are generation-determined;
  /// the served_by version varies across reloads.
  static std::string line_prefix(const core::DetectionReport& report) {
    std::string line = report.predicted_label == data::kTrojanInfected
                           ? "TROJAN-INFECTED"
                           : "trojan-free";
    line += "\tp=" + util::format_fixed(report.probability, 3);
    line += "\tregion=" + net::protocol::region_text(report.region);
    line += "\tmodel=";
    return line;
  }

  static std::shared_ptr<serve::ModelRegistry> registry_with_a() {
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->reload_from("m", path_a_);
    return registry;
  }

  static std::filesystem::path dir_;
  static std::filesystem::path path_a_;
  static std::filesystem::path path_b_;
  static std::vector<std::string>* files_;
  static std::vector<std::string>* prefix_a_;
  static std::vector<std::string>* prefix_b_;
};

std::filesystem::path ScanServerFixture::dir_;
std::filesystem::path ScanServerFixture::path_a_;
std::filesystem::path ScanServerFixture::path_b_;
std::vector<std::string>* ScanServerFixture::files_ = nullptr;
std::vector<std::string>* ScanServerFixture::prefix_a_ = nullptr;
std::vector<std::string>* ScanServerFixture::prefix_b_ = nullptr;

// --- serving correctness -----------------------------------------------------

TEST_F(ScanServerFixture, ServesBitIdenticalVerdictsInStrictRequestOrder) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  // One pipelined burst; responses must come back in request order even
  // though batching may compute them in any order.
  std::string burst;
  for (const std::string& file : *files_) burst += file + "\n";
  ASSERT_TRUE(send_all(client.fd.get(), burst));
  for (std::size_t i = 0; i < files_->size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "no response for request " << i;
    EXPECT_EQ(*line, (*prefix_a_)[i] + "m@1\t" + (*files_)[i]);
  }

  // A second pass answers from the verdict cache — byte-identical lines.
  ASSERT_TRUE(send_all(client.fd.get(), burst));
  for (std::size_t i = 0; i < files_->size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, (*prefix_a_)[i] + "m@1\t" + (*files_)[i]);
  }
  EXPECT_GE(service.stats().cache_hits, files_->size());
}

TEST_F(ScanServerFixture, InlineRtlScansAndEchoesTheInlineMarker) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line(
      "~inline module t(input a, output b); assign b = a; endmodule"));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->rfind("trojan-free\t", 0) == 0 ||
              line->rfind("TROJAN-INFECTED\t", 0) == 0)
      << *line;
  EXPECT_NE(line->find("\tmodel=m@1\t"), std::string::npos) << *line;
  EXPECT_EQ(line->substr(line->rfind('\t') + 1), net::protocol::kInlineEcho);
}

TEST_F(ScanServerFixture, HostilelyDeepRtlGetsParseErrorAndTheConnectionServesOn) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  // ~400 KB of nested parentheses: under the 1 MiB line cap, far past the
  // parser's nesting bound. It used to overflow a worker's stack and kill
  // every connection with the process.
  const std::size_t depth = 200000;
  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line("~inline module t(input a, output b); assign b = " +
                               std::string(depth, '(') + "a" + std::string(depth, ')') +
                               "; endmodule"));
  EXPECT_EQ(client.read_line(),
            net::protocol::status_line("parse-error", "m", net::protocol::kInlineEcho));

  ASSERT_TRUE(client.send_line(
      "~inline module t(input a, output b); assign b = a; endmodule"));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\tmodel=m@1\t"), std::string::npos) << *line;
  EXPECT_EQ(service.stats().parse_failures, 1u);
}

TEST_F(ScanServerFixture, UnreadableAndMalformedRequestsGetStatusLines) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line("no_such_file.v"));
  EXPECT_EQ(client.read_line(),
            net::protocol::status_line("read-error", "m", "no_such_file.v"));
  ASSERT_TRUE(client.send_line("~deadline=abc x.v"));
  EXPECT_EQ(client.read_line(),
            net::protocol::status_line("bad-request", "m", "~deadline=abc x.v"));
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

// --- reload under load (satellite: bit-identical across !reload storm) -------

TEST_F(ScanServerFixture, ReloadStormUnderLoadKeepsEveryVerdictGenerationTrue) {
  serve::DetectionService service(registry_with_a(), "m");
  net::ServerConfig config;
  ServerHarness harness(service, config, [&](net::ScanServer& server) {
    server.set_control_handler([&service](const std::string& line) -> std::string {
      // "!reload m=<path>" — the test's own minimal control surface.
      const std::size_t space = line.find(' ');
      const std::size_t eq = line.find('=');
      const std::string name = line.substr(space + 1, eq - space - 1);
      const serve::ModelHandle handle =
          service.reload(name, std::filesystem::path(line.substr(eq + 1)));
      return "reloaded " + handle->label() + "\n";
    });
  });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&, t] {
      LineClient client;
      if (!client.connect(harness.port())) {
        ++wrong;
        return;
      }
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& file = (*files_)[i % files_->size()];
        const std::size_t idx = i % files_->size();
        if (!client.send_line(file)) {
          ++wrong;
          return;
        }
        const auto line = client.read_line();
        if (!line.has_value()) {
          ++wrong;
          return;
        }
        // The line must be EXACTLY one generation's verdict, served_by a
        // parseable m@N whose parity matches that generation (A published
        // first and every reload alternates B, A, B, ...).
        const std::size_t marker = line->find("\tmodel=m@");
        bool ok = marker != std::string::npos;
        if (ok) {
          const std::size_t ver_start = marker + 9;
          const std::size_t ver_end = line->find('\t', ver_start);
          ok = ver_end != std::string::npos;
          if (ok) {
            const std::string version = line->substr(ver_start, ver_end - ver_start);
            const bool odd = (version.back() - '0') % 2 == 1;
            const std::string& prefix = odd ? (*prefix_a_)[idx] : (*prefix_b_)[idx];
            ok = *line == prefix + "m@" + version + "\t" + file;
          }
        }
        if (!ok) {
          ++wrong;
          ADD_FAILURE() << "generation-torn verdict: " << *line;
          return;
        }
        ++checked;
        ++i;
      }
    });
  }

  LineClient control;
  ASSERT_TRUE(control.connect(harness.port()));
  for (int swap = 0; swap < 6; ++swap) {
    const std::filesystem::path& next = swap % 2 == 0 ? path_b_ : path_a_;
    ASSERT_TRUE(control.send_line("!reload m=" + next.string()));
    const auto reply = control.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->rfind("reloaded m@", 0), 0u) << *reply;
    std::this_thread::sleep_for(30ms);
  }
  stop = true;
  for (std::thread& hammer : hammers) hammer.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(checked.load(), 0u);
}

// --- admission control, deadlines, watchdogs, drain --------------------------

TEST_F(ScanServerFixture, OverloadAtFourTimesAdmissionLimitShedsExactlyTheExcess) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  service_config.batch_linger = 300ms;  // keep admitted requests in flight
  service_config.max_batch = 16;
  serve::DetectionService service(registry_with_a(), "m", service_config);
  net::ServerConfig config;
  config.max_inflight = 4;
  ServerHarness harness(service, config);

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  std::string burst;
  for (int i = 0; i < 16; ++i) burst += (*files_)[i % files_->size()] + "\n";
  ASSERT_TRUE(send_all(client.fd.get(), burst));

  // FIFO: requests 0-3 were admitted (verdicts), 4-15 shed (BUSY) — and
  // every one of the 16 gets a line; nothing hangs.
  for (int i = 0; i < 16; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "request " << i << " never answered";
    const std::string& file = (*files_)[static_cast<std::size_t>(i) % files_->size()];
    if (i < 4) {
      EXPECT_EQ(*line, (*prefix_a_)[static_cast<std::size_t>(i)] + "m@1\t" + file);
    } else {
      EXPECT_EQ(*line, net::protocol::status_line("BUSY", "m", file));
    }
  }
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.shed, 12u);
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST_F(ScanServerFixture, ExpiredDeadlinesAnswerTimeoutWithoutScanning) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  service_config.batch_linger = 250ms;
  serve::DetectionService service(registry_with_a(), "m", service_config);
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.send_line("~deadline=1 " + (*files_)[0]));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.read_line(),
              net::protocol::status_line("TIMEOUT", "m", (*files_)[0]));
  }
  // A deadline-free request after the storm still scans normally, and its
  // dispatch sweeps the expired three out of the queue unscanned.
  ASSERT_TRUE(client.send_line((*files_)[1]));
  EXPECT_EQ(client.read_line(), (*prefix_a_)[1] + "m@1\t" + (*files_)[1]);
  EXPECT_EQ(service.stats().deadline_timeouts, 3u);
  EXPECT_EQ(harness.server.stats().timeouts, 3u);
}

TEST_F(ScanServerFixture, IdleConnectionsAreEvictedByTheWatchdog) {
  serve::DetectionService service(registry_with_a(), "m");
  net::ServerConfig config;
  config.idle_timeout = 100ms;
  ServerHarness harness(service, config);

  LineClient idle;
  ASSERT_TRUE(idle.connect(harness.port()));
  // An ACTIVE client keeps its slot across the idle horizon...
  LineClient active;
  ASSERT_TRUE(active.connect(harness.port()));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(active.send_line((*files_)[0]));
    ASSERT_TRUE(active.read_line().has_value());
    std::this_thread::sleep_for(40ms);
  }
  // ...while the idle one was evicted by the watchdog.
  EXPECT_TRUE(idle.wait_closed(5000));
  EXPECT_GE(harness.server.stats().dropped, 1u);
  ASSERT_TRUE(active.send_line((*files_)[0]));
  EXPECT_TRUE(active.read_line().has_value());
}

TEST_F(ScanServerFixture, DrainAnswersEveryInflightRequestThenClosesAndStopsLoop) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  service_config.batch_linger = 150ms;
  serve::DetectionService service(registry_with_a(), "m", service_config);
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += (*files_)[static_cast<std::size_t>(i)] + "\n";
  burst += "!drain\n";
  ASSERT_TRUE(send_all(client.fd.get(), burst));

  // All five in-flight verdicts land (drain never abandons admitted work),
  // then the drain acknowledgment, then EOF.
  for (int i = 0; i < 5; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "in-flight request " << i << " lost by drain";
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(*line, (*prefix_a_)[idx] + "m@1\t" + (*files_)[idx]);
  }
  EXPECT_EQ(client.read_line(), "noodled: draining");
  EXPECT_TRUE(client.wait_closed());

  // Drain completion stopped the loop; the listener is gone.
  harness.thread.join();
  EXPECT_TRUE(harness.server.draining());
  LineClient late;
  EXPECT_FALSE(late.connect(harness.port()));
  EXPECT_EQ(service.stats().deadline_timeouts, 0u);
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.connections, 0u);
}

TEST_F(ScanServerFixture, TraceToggleAddsTheTraceColumnToSocketVerdicts) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  std::atomic<bool> applied{false};
  harness.loop.post([&] {
    harness.server.set_trace(true);
    applied = true;
  });
  while (!applied.load()) std::this_thread::sleep_for(1ms);

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line((*files_)[0]));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t pos; (pos = line->find('\t', start)) != std::string::npos;
       start = pos + 1) {
    fields.push_back(line->substr(start, pos - start));
  }
  fields.push_back(line->substr(start));
  ASSERT_EQ(fields.size(), 6u) << *line;
  EXPECT_EQ(fields[4].rfind("trace=", 0), 0u) << *line;
}

}  // namespace
}  // namespace noodle
