#include "net/server.h"

#include <cerrno>
#include <fstream>
#include <sstream>
#include <sys/epoll.h>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "serve/registry.h"

namespace noodle::net {

namespace {

/// One read() worth; lines longer than this just take several reads.
constexpr std::size_t kReadChunk = 16 * 1024;
/// Compact a write buffer once this many flushed bytes sit before offset.
constexpr std::size_t kCompactThreshold = 64 * 1024;

}  // namespace

ScanServer::Metrics::Metrics(obs::MetricsRegistry& registry)
    : accepted(registry.counter("noodle_net_accepted_total", "TCP connections accepted.")),
      dropped(registry.counter("noodle_net_dropped_total",
                               "Connections closed by the server (over-cap, watchdog, "
                               "error).")),
      requests(registry.counter("noodle_net_requests_total",
                                "Request lines received over TCP.")),
      responses(registry.counter("noodle_net_responses_total",
                                 "Response lines queued for write.")),
      shed(registry.counter("noodle_net_shed_total",
                            "Requests answered BUSY by admission control.")),
      timeouts(registry.counter("noodle_net_timeouts_total",
                                "Requests answered TIMEOUT past a deadline.")),
      protocol_errors(registry.counter("noodle_net_protocol_errors_total",
                                       "Malformed request lines and oversize unframed "
                                       "reads.")),
      bytes_rx(registry.counter("noodle_net_bytes_rx_total", "Bytes read from clients.")),
      bytes_tx(registry.counter("noodle_net_bytes_tx_total", "Bytes written to clients.")),
      connections(registry.gauge("noodle_net_connections", "Open TCP connections.")),
      inflight(registry.gauge("noodle_net_inflight",
                              "Socket requests in flight with the service.")),
      wbuf_bytes(registry.gauge("noodle_net_wbuf_bytes",
                                "Bytes buffered for clients across all connections.")) {}

ScanServer::ScanServer(EventLoop& loop, serve::DetectionService& service,
                       ServerConfig config)
    : loop_(loop),
      service_(service),
      config_(std::move(config)),
      metrics_(service.metrics()) {}

ScanServer::~ScanServer() {
  // After drain() every submit_async completion has already run (the
  // service fulfils callbacks before it counts a request finished), so no
  // pool thread can call back into freed server state. Posted-but-unrun
  // loop tasks are inert: the loop must already be stopped (see header).
  service_.drain();
}

void ScanServer::start() {
  std::error_code ec;
  std::uint16_t port = config_.port;
  listener_ = listen_tcp(config_.bind_address, port, config_.backlog, ec);
  if (!listener_) {
    throw std::system_error(ec, "ScanServer: cannot listen on " +
                                    config_.bind_address + ":" +
                                    std::to_string(config_.port));
  }
  port_ = port;
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

ScanServer::Connection* ScanServer::find(std::uint64_t id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second.get();
}

void ScanServer::on_accept() {
  // Accept everything ready (level-triggered — a break on EAGAIN is safe),
  // but cap one round so a connect storm cannot starve existing clients.
  for (int round = 0; round < 64; ++round) {
    Fd fd(checked_accept(listener_.get()));
    if (!fd) {
      // EMFILE/ENFILE/ECONNABORTED: nothing to do but come back later —
      // the watchdogs will reclaim fds if the process is at its limit.
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      // Immediate close (not "leave it in the backlog"): the client gets
      // a crisp RST/EOF instead of a silent hang.
      metrics_.accepted.inc();
      metrics_.dropped.inc();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = std::move(fd);
    const std::uint64_t id = conn->id;
    const int raw_fd = conn->fd.get();
    connections_.emplace(id, std::move(conn));
    loop_.add(raw_fd, EPOLLIN, [this, id](std::uint32_t events) { on_io(id, events); });
    arm_idle_timer(*connections_[id]);
    metrics_.accepted.inc();
    metrics_.connections.add(1);
  }
}

void ScanServer::on_io(std::uint64_t id, std::uint32_t events) {
  Connection* conn = find(id);
  if (conn == nullptr) return;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_connection(id, /*server_initiated=*/true);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    if (!handle_read(id)) return;
  }
  if ((events & EPOLLOUT) != 0) {
    conn = find(id);
    if (conn == nullptr) return;
    if (!write_some(*conn)) return;
    flush_connection(*conn);
  }
}

bool ScanServer::handle_read(std::uint64_t id) {
  Connection* conn = find(id);
  if (conn == nullptr) return false;
  char chunk[kReadChunk];
  const ssize_t n = checked_read(conn->fd.get(), chunk, sizeof chunk);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return true;  // level-triggered epoll retries for us
    }
    close_connection(id, /*server_initiated=*/true);
    return false;
  }
  if (n == 0) {
    // Client half-closed: it wants its remaining answers, then a clean
    // close. Stop reading, keep flushing.
    conn->half_closed = true;
    update_interest(*conn);
    if (conn->pending.empty() && conn->buffered_bytes() == 0) {
      close_connection(id, /*server_initiated=*/false);
      return false;
    }
    return true;
  }
  metrics_.bytes_rx.inc(static_cast<std::uint64_t>(n));
  conn->rbuf.append(chunk, static_cast<std::size_t>(n));
  arm_idle_timer(*conn);

  if (conn->rbuf.size() > config_.max_line_bytes &&
      conn->rbuf.find('\n') == std::string::npos) {
    // A "line" the size of the cap with no newline is not a request, it is
    // a memory exhaustion attempt (or a framing bug). Either way: out.
    metrics_.protocol_errors.inc();
    close_connection(id, /*server_initiated=*/true);
    return false;
  }

  std::size_t start = 0;
  std::vector<std::string> lines;
  for (std::size_t nl = conn->rbuf.find('\n', start); nl != std::string::npos;
       start = nl + 1, nl = conn->rbuf.find('\n', start)) {
    std::string line = conn->rbuf.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
  }
  conn->rbuf.erase(0, start);
  for (std::string& line : lines) {
    handle_line(id, std::move(line));
    if (find(id) == nullptr) return false;  // the line's handling closed us
  }
  return true;
}

void ScanServer::handle_line(std::uint64_t id, std::string line) {
  Connection* conn = find(id);
  if (conn == nullptr || line.empty()) return;

  if (line.front() == '!') {  // control line
    auto slot = std::make_shared<Slot>();
    slot->ready = true;
    if (line.rfind("!drain", 0) == 0) {
      slot->text = "noodled: draining\n";
      conn->pending.push_back(std::move(slot));
      begin_drain();  // flushes (and may close) every connection, incl. this
      return;
    }
    std::string response =
        control_ ? control_(line) : std::string("noodled: no control handler\n");
    if (!response.empty() && response.back() != '\n') response += '\n';
    slot->text = std::move(response);
    conn->pending.push_back(std::move(slot));
    flush_connection(*conn);
    return;
  }

  metrics_.requests.inc();
  const protocol::RequestLine request = protocol::parse_request_line(
      line, [this](const std::string& name) {
        return static_cast<bool>(
            service_.registry().try_resolve(serve::ModelSpec{name, 0}));
      });
  const std::string model =
      request.spec.empty() ? service_.default_model() : request.spec;

  auto slot = std::make_shared<Slot>();
  slot->model = model;
  slot->echo = request.inline_rtl ? protocol::kInlineEcho : request.body;

  if (!request.error.empty()) {
    slot->echo = line;  // nothing parsed; echo what we got
    slot->ready = true;
    slot->text = protocol::status_line("bad-request", model, slot->echo) + "\n";
    metrics_.protocol_errors.inc();
  } else if (draining_ || inflight_ >= config_.max_inflight) {
    // Admission control: overload (or drain) answers instantly and
    // explicitly. The client can back off; nothing queues unboundedly.
    slot->ready = true;
    slot->text = protocol::status_line("BUSY", model, slot->echo) + "\n";
    metrics_.shed.inc();
  } else {
    std::string source;
    bool read_ok = true;
    if (request.inline_rtl) {
      source = request.body;
    } else {
      std::ifstream file(request.body);
      if (!file) {
        read_ok = false;
      } else {
        std::ostringstream text;
        text << file.rdbuf();
        source = std::move(text).str();
      }
    }
    if (!read_ok) {
      slot->ready = true;
      slot->text = protocol::status_line("read-error", model, slot->echo) + "\n";
    } else {
      const std::chrono::milliseconds deadline =
          request.deadline.count() > 0 ? request.deadline : config_.default_deadline;
      conn->pending.push_back(slot);
      submit_scan(*conn, request.spec, std::move(source), std::move(slot),
                  deadline);
      return;  // pushed above; submit may already have completed it
    }
  }
  conn->pending.push_back(std::move(slot));
  flush_connection(*conn);
}

void ScanServer::submit_scan(Connection& conn, const std::string& spec,
                             std::string source, std::shared_ptr<Slot> slot,
                             std::chrono::milliseconds deadline) {
  const std::uint64_t id = conn.id;
  slot->counted = true;
  ++inflight_;
  metrics_.inflight.add(1);
  if (deadline.count() > 0) {
    // The net-side guarantee: the CLIENT sees TIMEOUT at the deadline even
    // if the dispatcher is wedged under a pathological batch. Normally the
    // service answers first (its own sweep throws DeadlineError) and this
    // timer is cancelled unfired.
    slot->deadline_timer = loop_.add_timer(
        deadline, [this, id, slot] { deadline_fired(id, slot); });
  }
  serve::SubmitOptions options;
  options.deadline = deadline;
  serve::DetectionService::CompletionFn on_complete =
      [this, id, slot](std::future<core::DetectionReport> verdict) {
        // Runs on a pool thread (or inline on the loop thread for cache
        // hits) — marshal to the loop; futures are move-only, so park it
        // in a shared holder the std::function can copy.
        auto holder = std::make_shared<std::future<core::DetectionReport>>(
            std::move(verdict));
        loop_.post([this, id, slot, holder] {
          complete_request(id, slot, std::move(*holder));
        });
      };
  if (spec.empty()) {
    service_.submit_async(std::move(source), options, std::move(on_complete));
  } else {
    service_.submit_async(spec, std::move(source), options, std::move(on_complete));
  }
}

void ScanServer::settle_slot(Slot& slot) {
  slot.completed = true;
  if (slot.counted) {
    slot.counted = false;
    --inflight_;
    metrics_.inflight.sub(1);
  }
  if (slot.deadline_timer != 0) {
    loop_.cancel_timer(slot.deadline_timer);
    slot.deadline_timer = 0;
  }
}

void ScanServer::complete_request(std::uint64_t id, const std::shared_ptr<Slot>& slot,
                                  std::future<core::DetectionReport> verdict) {
  if (slot->completed) return;  // deadline timer (or a close) answered first
  settle_slot(*slot);
  std::string text;
  try {
    const core::DetectionReport report = verdict.get();
    text = protocol::verdict_line(report, slot->echo, trace_on_);
  } catch (const serve::DeadlineError&) {
    text = protocol::status_line("TIMEOUT", slot->model, slot->echo);
    metrics_.timeouts.inc();
  } catch (const serve::RegistryError&) {
    text = protocol::status_line("no-model", slot->model, slot->echo);
  } catch (const std::exception&) {
    text = protocol::status_line("parse-error", slot->model, slot->echo);
  }
  slot->text = text + "\n";
  slot->ready = true;
  Connection* conn = find(id);
  if (conn == nullptr) return;  // client left before its answer; drop it
  flush_connection(*conn);
}

void ScanServer::deadline_fired(std::uint64_t id, const std::shared_ptr<Slot>& slot) {
  slot->deadline_timer = 0;
  if (slot->completed) return;  // the verdict won the race
  settle_slot(*slot);
  slot->text = protocol::status_line("TIMEOUT", slot->model, slot->echo) + "\n";
  slot->ready = true;
  metrics_.timeouts.inc();
  Connection* conn = find(id);
  if (conn == nullptr) return;
  flush_connection(*conn);
}

void ScanServer::flush_connection(Connection& conn) {
  // Responses stream strictly in request order: drain the ready prefix of
  // the pipeline into the write buffer, then push bytes.
  std::uint64_t flushed = 0;
  const std::size_t buffered = conn.buffered_bytes();
  while (!conn.pending.empty() && conn.pending.front()->ready) {
    conn.wbuf += conn.pending.front()->text;
    conn.pending.pop_front();
    ++flushed;
  }
  if (flushed > 0) {
    metrics_.responses.inc(flushed);
    metrics_.wbuf_bytes.add(static_cast<std::int64_t>(conn.buffered_bytes() - buffered));
  }
  if (!write_some(conn)) return;

  const std::uint64_t id = conn.id;
  if (conn.buffered_bytes() == 0 && conn.pending.empty() &&
      (conn.half_closed || draining_)) {
    close_connection(id, /*server_initiated=*/false);
    return;
  }
  check_drained();
}

bool ScanServer::write_some(Connection& conn) {
  const std::uint64_t id = conn.id;
  bool progressed = false;
  while (conn.wbuf_off < conn.wbuf.size()) {
    const ssize_t n = checked_write(conn.fd.get(), conn.wbuf.data() + conn.wbuf_off,
                                    conn.wbuf.size() - conn.wbuf_off);
    if (n > 0) {
      conn.wbuf_off += static_cast<std::size_t>(n);
      progressed = true;
      metrics_.bytes_tx.inc(static_cast<std::uint64_t>(n));
      metrics_.wbuf_bytes.sub(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // ECONNRESET/EPIPE/...: the client is gone mid-response. The torn
    // bytes never reached anyone — and a fresh connection re-requesting
    // gets a bit-identical verdict from the cache, so nothing is lost.
    close_connection(id, /*server_initiated=*/true);
    return false;
  }

  if (conn.wbuf_off == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.wbuf_off = 0;
    if (conn.stall_timer != 0) {
      loop_.cancel_timer(conn.stall_timer);
      conn.stall_timer = 0;
    }
    const bool was_blocked = conn.want_write || conn.paused;
    conn.want_write = false;
    conn.paused = false;
    if (was_blocked) update_interest(conn);
    return true;
  }

  // Bytes remain: the client is not draining fast enough.
  if (conn.wbuf_off > kCompactThreshold) {
    conn.wbuf.erase(0, conn.wbuf_off);
    conn.wbuf_off = 0;
  }
  if (conn.buffered_bytes() > config_.wbuf_hard_limit) {
    // Past the hard cap the client is not slow, it is absent (or
    // malicious). Its buffered bytes are the only per-connection memory
    // not otherwise bounded — reclaim them.
    close_connection(id, /*server_initiated=*/true);
    return false;
  }
  bool interest_changed = false;
  if (!conn.want_write) {
    conn.want_write = true;
    interest_changed = true;
  }
  if (!conn.paused && conn.buffered_bytes() > config_.wbuf_soft_limit) {
    // Backpressure: stop READING this connection. Its pipelined requests
    // stay in the kernel buffer and eventually throttle the sender; other
    // connections are untouched.
    conn.paused = true;
    interest_changed = true;
  }
  if (interest_changed) update_interest(conn);
  if (progressed || conn.stall_timer == 0) arm_stall_timer(conn);
  return true;
}

void ScanServer::update_interest(Connection& conn) {
  std::uint32_t events = 0;
  if (!conn.paused && !conn.half_closed) events |= EPOLLIN;
  if (conn.want_write) events |= EPOLLOUT;
  loop_.modify(conn.fd.get(), events);
}

void ScanServer::arm_idle_timer(Connection& conn) {
  if (config_.idle_timeout.count() <= 0) return;
  if (conn.idle_timer != 0) loop_.cancel_timer(conn.idle_timer);
  const std::uint64_t id = conn.id;
  conn.idle_timer = loop_.add_timer(config_.idle_timeout, [this, id] {
    Connection* idle = find(id);
    if (idle == nullptr) return;
    idle->idle_timer = 0;
    if (idle->pending.empty() && idle->buffered_bytes() == 0) {
      close_connection(id, /*server_initiated=*/true);
    } else {
      // Busy waiting on verdicts is not idle; give it another period.
      arm_idle_timer(*idle);
    }
  });
}

void ScanServer::arm_stall_timer(Connection& conn) {
  if (config_.write_stall_timeout.count() <= 0) return;
  if (conn.stall_timer != 0) loop_.cancel_timer(conn.stall_timer);
  const std::uint64_t id = conn.id;
  conn.stall_timer = loop_.add_timer(config_.write_stall_timeout, [this, id] {
    Connection* stalled = find(id);
    if (stalled == nullptr) return;
    stalled->stall_timer = 0;
    if (stalled->buffered_bytes() > 0) {
      // A full period with buffered bytes and no drain progress (progress
      // re-arms the timer): the classic slow-client attack. Evict.
      close_connection(id, /*server_initiated=*/true);
    }
  });
}

void ScanServer::close_connection(std::uint64_t id, bool server_initiated) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (conn.idle_timer != 0) loop_.cancel_timer(conn.idle_timer);
  if (conn.stall_timer != 0) loop_.cancel_timer(conn.stall_timer);
  for (const std::shared_ptr<Slot>& slot : conn.pending) {
    // Settle in-flight accounting now; the late service completion finds
    // completed == true and drops its orphaned verdict.
    if (!slot->completed) settle_slot(*slot);
  }
  metrics_.wbuf_bytes.sub(static_cast<std::int64_t>(conn.buffered_bytes()));
  loop_.remove(conn.fd.get());
  connections_.erase(it);
  metrics_.connections.sub(1);
  if (server_initiated) metrics_.dropped.inc();
  check_drained();
}

void ScanServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listener_) {
    loop_.remove(listener_.get());
    listener_.reset();  // new connects get RST/refused, not a silent hang
  }
  // Flush every connection; those with nothing outstanding close here, the
  // rest close when their last response flushes (see flush_connection).
  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    Connection* conn = find(id);
    if (conn != nullptr) flush_connection(*conn);
  }
  if (config_.drain_grace.count() > 0 && !connections_.empty()) {
    drain_grace_timer_ = loop_.add_timer(config_.drain_grace, [this] {
      drain_grace_timer_ = 0;
      // Laggards had their chance; every slot they still hold is settled
      // by close_connection, so drain always terminates.
      std::vector<std::uint64_t> rest;
      rest.reserve(connections_.size());
      for (const auto& [id, conn] : connections_) rest.push_back(id);
      for (const std::uint64_t id : rest) {
        close_connection(id, /*server_initiated=*/true);
      }
    });
  }
  check_drained();
}

void ScanServer::check_drained() {
  if (!draining_ || drained_notified_ || !connections_.empty()) return;
  drained_notified_ = true;
  if (drain_grace_timer_ != 0) {
    loop_.cancel_timer(drain_grace_timer_);
    drain_grace_timer_ = 0;
  }
  if (on_drained_) loop_.post(on_drained_);
}

ServerStats ScanServer::stats() const {
  ServerStats stats;
  stats.accepted = metrics_.accepted.value();
  stats.dropped = metrics_.dropped.value();
  stats.requests = metrics_.requests.value();
  stats.responses = metrics_.responses.value();
  stats.shed = metrics_.shed.value();
  stats.timeouts = metrics_.timeouts.value();
  stats.protocol_errors = metrics_.protocol_errors.value();
  stats.bytes_rx = metrics_.bytes_rx.value();
  stats.bytes_tx = metrics_.bytes_tx.value();
  stats.connections = static_cast<std::uint64_t>(metrics_.connections.value());
  stats.inflight = static_cast<std::uint64_t>(metrics_.inflight.value());
  return stats;
}

}  // namespace noodle::net
