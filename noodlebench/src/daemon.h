#pragma once
// A noodled child process: spawned with pipes, its stderr drained by a
// background thread into timestamped lines that the harness waits on
// ("listening on ...", "disk cache ... loaded=N").

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace noodlebench {

class Daemon {
 public:
  /// Launches `binary args...`. With `pipe_stdin` the harness writes the
  /// daemon's stdin (stdin mode); otherwise stdin is /dev/null. stdout is
  /// piped when `pipe_stdout`, else /dev/null. Throws on spawn failure.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         bool pipe_stdin, bool pipe_stdout);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Monotonic ns just before the spawn.
  std::int64_t launched_ns() const { return launched_ns_; }
  int stdin_fd() const { return stdin_fd_; }
  int stdout_fd() const { return stdout_fd_; }
  void close_stdin();

  /// Waits until a stderr line containing `needle` arrives; returns it (and
  /// its arrival time) or throws after `timeout_s` or when stderr closes.
  std::string wait_stderr(const std::string& needle, double timeout_s,
                          std::int64_t* at_ns = nullptr);
  /// Every stderr line so far, newline-joined.
  std::string stderr_text() const;

  /// Peak resident set (VmHWM) in MiB, read from /proc; 0 if unavailable.
  double peak_rss_mb() const;

  /// Sends `signo` (0 = none) and waits up to `timeout_s` for exit; SIGKILLs
  /// on timeout. Returns the exit status (128+signal when killed) once the
  /// daemon's stderr has been read to the end.
  int stop(int signo, double timeout_s);

 private:
  void drain_stderr();

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int stderr_fd_ = -1;
  std::int64_t launched_ns_ = 0;
  int exit_status_ = -1;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  bool stderr_closed_ = false;
  std::thread reader_;
};

}  // namespace noodlebench
