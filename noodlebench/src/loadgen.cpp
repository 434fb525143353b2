#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>

#include "net/socket.h"

namespace noodlebench {

namespace {

noodle::net::Fd connect_to(std::uint16_t port) {
  std::error_code ec;
  noodle::net::Fd fd = noodle::net::connect_tcp("127.0.0.1", port, ec);
  if (ec || !fd) throw std::runtime_error("connect to noodled failed: " + ec.message());
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::uint64_t field_value(const std::string& column, const char* key) {
  const std::string needle = std::string(key) + "=";
  std::size_t at = column.find(needle);
  while (at != std::string::npos && at > 0 && column[at - 1] != ':' &&
         column[at - 1] != ',') {
    at = column.find(needle, at + 1);
  }
  if (at == std::string::npos) return 0;
  return std::strtoull(column.c_str() + at + needle.size(), nullptr, 10);
}

/// One connection of the generator.
struct Lane {
  noodle::net::Fd fd;
  std::deque<std::size_t> outstanding;  // request indices, FIFO
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  bool closed = false;

  void flush() {
    while (!closed && woff < wbuf.size()) {
      const ssize_t n = ::send(fd.get(), wbuf.data() + woff, wbuf.size() - woff, MSG_NOSIGNAL);
      if (n > 0) {
        woff += static_cast<std::size_t>(n);
      } else {
        if (n < 0 && errno != EAGAIN && errno != EINTR) closed = true;
        break;
      }
    }
    if (woff == wbuf.size()) {
      wbuf.clear();
      woff = 0;
    }
  }
  /// Reads what is available; calls on_line(line) per complete line.
  template <typename Fn>
  void receive(Fn&& on_line) {
    char chunk[1 << 16];
    while (!closed) {
      const ssize_t n = ::recv(fd.get(), chunk, sizeof chunk, 0);
      if (n > 0) {
        rbuf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EINTR)) closed = true;
      break;
    }
    std::size_t start = 0, nl;
    while ((nl = rbuf.find('\n', start)) != std::string::npos) {
      on_line(rbuf.substr(start, nl - start));
      start = nl + 1;
    }
    rbuf.erase(0, start);
  }
};

}  // namespace

void PhaseResult::absorb(const PhaseResult& other) {
  rate = other.rate;
  sent += other.sent;
  answered += other.answered;
  ok += other.ok;
  busy += other.busy;
  timeouts += other.timeouts;
  errors += other.errors;
  mismatches += other.mismatches;
  dropped += other.dropped;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  backlog_mid += other.backlog_mid;
  backlog_end += other.backlog_end;
  elapsed_s += other.elapsed_s;
  trace.merge(other.trace);
  first_mismatches.insert(first_mismatches.end(), other.first_mismatches.begin(),
                          other.first_mismatches.end());
}

void TraceSample::add_column(const std::string& response_line) {
  const std::size_t at = response_line.find("\ttrace=");
  if (at == std::string::npos) return;
  const std::size_t end = response_line.find('\t', at + 1);
  const std::string column = response_line.substr(at + 1, end - at - 1);
  if (column.find("cache=hit") != std::string::npos) {
    lookup.push_back(field_value(column, "lookup"));
    hit_total.push_back(field_value(column, "total"));
  } else {
    queue.push_back(field_value(column, "queue"));
    feat.push_back(field_value(column, "feat"));
    infer.push_back(field_value(column, "infer"));
    total.push_back(field_value(column, "total"));
  }
}

void TraceSample::merge(const TraceSample& other) {
  const auto append = [](std::vector<std::uint64_t>& to,
                         const std::vector<std::uint64_t>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(queue, other.queue);
  append(feat, other.feat);
  append(infer, other.infer);
  append(total, other.total);
  append(lookup, other.lookup);
  append(hit_total, other.hit_total);
}

PhaseResult run_phase(std::uint16_t port,
                      const std::vector<std::vector<std::int64_t>>& schedule,
                      const std::vector<std::vector<Item>>& items, bool collect_trace) {
  // One thread drives every connection and spins between sends: a sleeping
  // thread on a VM wakes up to milliseconds late, which would be charged
  // to the server as latency. Spinning costs the generator one CPU.
  struct Request {
    std::int64_t due;
    std::size_t lane;
    const Item* item;
  };
  std::vector<Request> requests;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    for (std::size_t k = 0; k < schedule[c].size(); ++k) {
      requests.push_back({schedule[c][k], c, &items[c][k]});
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.due < b.due; });
  const std::size_t total = requests.size();
  const std::int64_t horizon = total ? requests.back().due : 0;

  std::vector<Lane> lanes(schedule.size());
  std::vector<struct pollfd> pfds(lanes.size());
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    lanes[c].fd = connect_to(port);
    noodle::net::set_nonblocking(lanes[c].fd.get());
    pfds[c] = {lanes[c].fd.get(), POLLIN, 0};
  }

  PhaseResult out;
  out.latency_ms.reserve(total);
  out.late_ms.reserve(total);
  const std::int64_t start_ns = now_ns() + 5'000'000;
  // Answers still missing this long after the last due time are dropped.
  const std::int64_t give_up_ns = start_ns + horizon + 15'000'000'000LL;
  std::int64_t last_answer = start_ns;
  std::size_t next = 0;
  std::size_t pending = 0;
  bool mid_taken = false;

  const auto on_line = [&](Lane& lane, const std::string& line, std::int64_t recv_ns) {
    if (lane.outstanding.empty()) {
      ++out.errors;  // an answer nobody asked for
      return;
    }
    const Request& request = requests[lane.outstanding.front()];
    lane.outstanding.pop_front();
    --pending;
    ++out.answered;
    out.latency_ms.push_back(static_cast<double>(recv_ns - (start_ns + request.due)) / 1e6);
    last_answer = std::max(last_answer, recv_ns);
    if (starts_with(line, "BUSY\t")) {
      ++out.busy;
    } else if (starts_with(line, "TIMEOUT\t")) {
      ++out.timeouts;
    } else if (strip_trace(line) == *request.item->expected) {
      ++out.ok;
      if (collect_trace) out.trace.add_column(line);
    } else if (starts_with(line, "TROJAN-INFECTED\t") || starts_with(line, "trojan-free\t")) {
      ++out.mismatches;
      if (out.first_mismatches.size() < 3) {
        out.first_mismatches.push_back("got '" + line + "' want '" +
                                       *request.item->expected + "'");
      }
    } else {
      ++out.errors;
    }
  };

  while (next < total || pending > 0) {
    const std::int64_t now = now_ns();
    if (next == total && now > give_up_ns) break;
    while (next < total && start_ns + requests[next].due <= now) {
      const Request& request = requests[next];
      Lane& lane = lanes[request.lane];
      if (lane.closed) {
        ++out.dropped;
      } else {
        lane.wbuf += *request.item->line;
        lane.outstanding.push_back(next);
        ++pending;
        ++out.sent;
        out.late_ms.push_back(static_cast<double>(now - (start_ns + request.due)) / 1e6);
      }
      if (!mid_taken && request.due >= horizon / 2) {
        out.backlog_mid = static_cast<std::int64_t>(pending);
        mid_taken = true;
      }
      if (++next == total) out.backlog_end = static_cast<std::int64_t>(pending);
    }
    bool all_closed = true;
    for (Lane& lane : lanes) {
      lane.flush();
      all_closed = all_closed && lane.closed;
    }
    if (all_closed) break;
    // Spin while requests remain to be sent; afterwards just wait for answers.
    const struct timespec zero = {0, 0}, tick = {0, 1'000'000};
    if (::ppoll(pfds.data(), pfds.size(), next < total ? &zero : &tick, nullptr) <= 0) continue;
    const std::int64_t recv_ns = now_ns();
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      lanes[c].receive([&](const std::string& line) { on_line(lanes[c], line, recv_ns); });
    }
  }
  out.dropped += total - next;  // never sent: every connection had closed
  for (const Lane& lane : lanes) out.dropped += lane.outstanding.size();
  out.elapsed_s = static_cast<double>(last_answer - start_ns) / 1e9;
  return out;
}

std::vector<std::string> send_all(std::uint16_t port, const std::vector<std::string>& lines,
                                  std::size_t window) {
  Lane lane;
  lane.fd = connect_to(port);
  noodle::net::set_nonblocking(lane.fd.get());
  std::vector<std::string> responses;
  std::size_t next = 0;
  while (responses.size() < lines.size() && !lane.closed) {
    while (next < lines.size() && next - responses.size() < window) lane.wbuf += lines[next++];
    lane.flush();
    struct pollfd pfd = {lane.fd.get(),
                         static_cast<short>(POLLIN | (lane.wbuf.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&pfd, 1, 30'000) <= 0) break;
    lane.receive([&](const std::string& line) { responses.push_back(line); });
  }
  return responses;
}

std::string control(std::uint16_t port, const std::string& line,
                    const std::string& last_marker) {
  noodle::net::Fd fd = connect_to(port);
  const std::string payload = line + "\n";
  if (::send(fd.get(), payload.data(), payload.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(payload.size())) {
    throw std::runtime_error("control send failed");
  }
  std::string reply;
  char chunk[1 << 14];
  while (true) {
    const std::size_t marker = reply.find(last_marker);
    if (marker != std::string::npos && reply.find('\n', marker) != std::string::npos) break;
    const ssize_t n = ::recv(fd.get(), chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("control reply cut short: " + reply);
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  return reply;
}

}  // namespace noodlebench
