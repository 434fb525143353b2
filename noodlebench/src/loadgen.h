#pragma once
// The open-loop TCP load generator: one thread driving one connection per
// schedule lane, sending each request at its Poisson-scheduled time
// whatever the server does, and timing every response from when the request
// was DUE (not when it was sent), so a stall is charged to every request it
// delays (no coordinated omission). Every response is checked against the
// oracle's line.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace noodlebench {

/// One scheduled request: the bytes to send and the response to expect.
struct Item {
  const std::string* line = nullptr;      ///< request line incl. '\n'
  const std::string* expected = nullptr;  ///< oracle verdict line
};

/// Stage readings parsed from trace= columns (integer microseconds).
struct TraceSample {
  std::vector<std::uint64_t> queue, feat, infer, total;  ///< scanned requests
  std::vector<std::uint64_t> lookup, hit_total;          ///< cache/disk hits
  void add_column(const std::string& response_line);
  void merge(const TraceSample& other);
};

struct PhaseResult {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t answered = 0;  ///< response lines received
  std::size_t ok = 0;        ///< verdicts identical to the oracle's
  std::size_t busy = 0;
  std::size_t timeouts = 0;
  std::size_t errors = 0;      ///< other status lines (parse-error, ...)
  std::size_t mismatches = 0;  ///< verdict lines that differ from the oracle
  std::size_t dropped = 0;     ///< requests lost to a closed/failed connection
  std::vector<double> latency_ms;  ///< per answered request, from its due time
  std::vector<double> late_ms;     ///< per sent request, send time - due time
  std::int64_t backlog_mid = 0;    ///< outstanding at half the send window
  std::int64_t backlog_end = 0;    ///< outstanding when the last request went out
  double elapsed_s = 0.0;          ///< first due time -> last response
  TraceSample trace;
  std::vector<std::string> first_mismatches;

  /// Adds `other`'s requests to this phase's.
  void absorb(const PhaseResult& other);

  std::size_t failed() const { return busy + timeouts + errors + mismatches + dropped; }
  /// Latency quantile over every answered request of the phase.
  double p(double q) const { return quantile(latency_ms, q); }
  /// p99 of the generator's send lateness over every sent request.
  double late_p99() const { return quantile(late_ms, 0.99); }
};

/// Runs one phase: lane c sends items[c][k] at offset schedule[c][k] (ns).
PhaseResult run_phase(std::uint16_t port,
                      const std::vector<std::vector<std::int64_t>>& schedule,
                      const std::vector<std::vector<Item>>& items, bool collect_trace);

/// Sends `lines` on one connection with at most `window` unanswered (so
/// the server's in-flight cap never sheds them) and returns the responses.
/// Closed loop; used for set-up probes, warm-up and the untimed hit pass.
std::vector<std::string> send_all(std::uint16_t port, const std::vector<std::string>& lines,
                                  std::size_t window = 64);

/// Sends a control line ("!stats", "!trace on") and returns the daemon's
/// reply, reading until a line containing `last_marker` arrives.
std::string control(std::uint16_t port, const std::string& line,
                    const std::string& last_marker);

}  // namespace noodlebench
