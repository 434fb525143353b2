#pragma once
// net::ScanServer — noodled's TCP front end: thousands of concurrent
// connections speaking the newline-delimited protocol of net/protocol.h,
// multiplexed onto one net::EventLoop thread and mapped 1:1 onto
// DetectionService::submit_async. The loop NEVER blocks on inference:
// verdicts computed on pool threads are marshalled back with
// EventLoop::post and stream out per connection in request order.
//
// Robustness is the design, not an afterthought:
//
//   * backpressure — each connection owns a bounded write buffer; past the
//     soft limit the server stops READING that connection (a slow client
//     throttles itself, not its neighbours), past the hard limit the
//     connection is dropped. rbuf is bounded by max_line_bytes, pipelined
//     work by max_inflight — per-connection memory is capped everywhere;
//   * watchdogs — idle connections (nothing pending, nothing buffered) and
//     write-stalled clients (buffered bytes, no drain progress) are
//     evicted on wheel timers, so a client that wedges mid-protocol can
//     never hold a connection slot forever;
//   * admission control — once the service has max_inflight socket
//     requests in flight, further requests are answered "BUSY" instantly
//     instead of queueing without bound. Overload degrades crisply, it
//     does not cascade;
//   * deadlines — "~deadline=MS" (or the configured default) propagates
//     into the dispatcher, which answers expired requests "TIMEOUT"
//     without scanning them; a net-side wheel timer answers even if the
//     dispatcher wedges. Either way the client gets a line, never a hang;
//   * graceful drain — begin_drain() (SIGTERM, or the "!drain" control
//     line) closes the listener, sheds new requests with BUSY, lets
//     in-flight work finish or deadline out, flushes every write buffer,
//     force-closes laggards after drain_grace, then fires on_drained —
//     noodled flushes the disk cache and exits 0.
//
// Counters: the noodle_net_* handles in the service's MetricsRegistry are
// their only store — registered at construction, updated where the state
// changes, read by stats() and by every `!metrics` render alike. Servers
// sharing one service share those cells.
//
// Threading: everything here runs on the EventLoop thread except stats()
// (atomic loads, callable anywhere). Destroy the server only after the
// loop has stopped; the destructor drains the service so no completion
// callback can outlive it.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/event_loop.h"
#include "net/socket.h"
#include "serve/service.h"

namespace noodle::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; see ScanServer::port()
  int backlog = 128;
  /// Accepted connections beyond this are closed immediately (counted as
  /// dropped) — the listener itself keeps accepting so the backlog can
  /// never silently fill with zombies.
  std::size_t max_connections = 1024;
  /// Socket requests in flight with the service; excess answers "BUSY".
  std::size_t max_inflight = 256;
  /// A request line longer than this (no newline yet) is a protocol
  /// violation: the connection is dropped.
  std::size_t max_line_bytes = 1 << 20;
  /// Write-buffer backpressure: stop reading past soft, drop past hard.
  std::size_t wbuf_soft_limit = 256 * 1024;
  std::size_t wbuf_hard_limit = 1024 * 1024;
  /// Evict a connection with nothing pending and nothing buffered after
  /// this long without a byte received. Zero disables.
  std::chrono::milliseconds idle_timeout{30000};
  /// Evict a connection whose write buffer made no progress this long.
  /// Zero disables.
  std::chrono::milliseconds write_stall_timeout{10000};
  /// Deadline applied to requests that carry no "~deadline=" flag; zero =
  /// none.
  std::chrono::milliseconds default_deadline{0};
  /// Drain force-closes still-open connections after this grace period.
  std::chrono::milliseconds drain_grace{5000};
};

/// A view of the transport counters (each field one atomic load of its
/// noodle_net_* cell).
struct ServerStats {
  std::uint64_t accepted = 0;        ///< connections accepted
  std::uint64_t dropped = 0;         ///< connections closed BY the server
                                     ///  (over-cap, watchdog, error, grace)
  std::uint64_t requests = 0;        ///< request lines parsed
  std::uint64_t responses = 0;       ///< response lines queued for write
  std::uint64_t shed = 0;            ///< requests answered BUSY
  std::uint64_t timeouts = 0;        ///< requests answered TIMEOUT
  std::uint64_t protocol_errors = 0; ///< bad-request lines + oversize lines
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t connections = 0;     ///< gauge: currently open
  std::uint64_t inflight = 0;        ///< gauge: submitted, not yet answered
};

class ScanServer {
 public:
  /// Handles a "!..." control line, returning the text to send back
  /// (multi-line allowed; "" = no response). "!drain" is intercepted by
  /// the server itself before this runs.
  using ControlHandler = std::function<std::string(const std::string& line)>;

  /// Binds nothing yet — start() does. `service` and `loop` must outlive
  /// the server.
  ScanServer(EventLoop& loop, serve::DetectionService& service, ServerConfig config);
  /// Drains the service so no completion callback can target freed state.
  ~ScanServer();

  ScanServer(const ScanServer&) = delete;
  ScanServer& operator=(const ScanServer&) = delete;

  /// Binds + listens and registers with the loop. Throws std::system_error
  /// on bind failure. After it returns, port() is the actual bound port
  /// (useful with config.port = 0).
  void start();
  std::uint16_t port() const noexcept { return port_; }

  void set_control_handler(ControlHandler handler) { control_ = std::move(handler); }
  /// Toggles the trace= column on verdict lines (the "!trace" control).
  void set_trace(bool on) noexcept { trace_on_ = on; }
  bool trace() const noexcept { return trace_on_; }

  /// Starts the drain state machine (idempotent). Loop thread only — wire
  /// signals through EventLoop::watch_signal, which already delivers there.
  void begin_drain();
  bool draining() const noexcept { return draining_; }
  /// Runs (once, on the loop thread) when the drain completes: listener
  /// closed, every connection flushed and closed, no request unanswered.
  void set_on_drained(std::function<void()> callback) {
    on_drained_ = std::move(callback);
  }

  /// Thread-safe view of the noodle_net_* cells.
  ServerStats stats() const;

 private:
  /// One request (or control response) slot in a connection's pipeline.
  /// Responses stream strictly in request order: a slot's text is written
  /// only once every earlier slot has been written. shared_ptr because the
  /// service completion and the deadline timer both need it after the
  /// connection may already be gone.
  struct Slot {
    std::string model;  ///< for the 5-field status shape
    std::string echo;   ///< path or "<inline>"
    std::string text;   ///< response line(s), set when ready
    bool ready = false;
    bool completed = false;  ///< in-flight accounting settled (first of
                             ///  service completion / deadline / close)
    bool counted = false;    ///< true iff this slot holds an inflight_ unit
    EventLoop::TimerId deadline_timer = 0;
  };

  struct Connection {
    std::uint64_t id = 0;
    Fd fd;
    std::string rbuf;
    std::string wbuf;
    std::size_t wbuf_off = 0;
    std::deque<std::shared_ptr<Slot>> pending;
    EventLoop::TimerId idle_timer = 0;
    EventLoop::TimerId stall_timer = 0;
    bool paused = false;       ///< EPOLLIN dropped for backpressure
    bool want_write = false;   ///< EPOLLOUT armed
    bool half_closed = false;  ///< client EOF; flush pending, then close
    std::size_t buffered_bytes() const noexcept { return wbuf.size() - wbuf_off; }
  };

  void on_accept();
  void on_io(std::uint64_t id, std::uint32_t events);
  /// Reads once (level-triggered epoll re-arms); false if the connection
  /// died under this call.
  bool handle_read(std::uint64_t id);
  void handle_line(std::uint64_t id, std::string line);
  void submit_scan(Connection& conn, const std::string& spec, std::string source,
                   std::shared_ptr<Slot> slot, std::chrono::milliseconds deadline);
  /// Marshalled completion (loop thread): resolves the future into a
  /// response line unless the deadline timer answered first.
  void complete_request(std::uint64_t id, const std::shared_ptr<Slot>& slot,
                        std::future<core::DetectionReport> verdict);
  void deadline_fired(std::uint64_t id, const std::shared_ptr<Slot>& slot);
  /// Settles a slot's in-flight accounting exactly once.
  void settle_slot(Slot& slot);
  void flush_connection(Connection& conn);
  /// false if the connection died under the write.
  bool write_some(Connection& conn);
  void update_interest(Connection& conn);
  void arm_idle_timer(Connection& conn);
  void arm_stall_timer(Connection& conn);
  void close_connection(std::uint64_t id, bool server_initiated);
  void check_drained();
  Connection* find(std::uint64_t id);

  EventLoop& loop_;
  serve::DetectionService& service_;
  ServerConfig config_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::size_t inflight_ = 0;
  bool trace_on_ = false;
  bool draining_ = false;
  bool drained_notified_ = false;
  EventLoop::TimerId drain_grace_timer_ = 0;
  ControlHandler control_;
  std::function<void()> on_drained_;

  /// The noodle_net_* handles in service_.metrics().
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& registry);
    obs::Counter& accepted;
    obs::Counter& dropped;
    obs::Counter& requests;
    obs::Counter& responses;
    obs::Counter& shed;
    obs::Counter& timeouts;
    obs::Counter& protocol_errors;
    obs::Counter& bytes_rx;
    obs::Counter& bytes_tx;
    obs::Gauge& connections;
    obs::Gauge& inflight;
    obs::Gauge& wbuf_bytes;
  };
  Metrics metrics_;
};

}  // namespace noodle::net
