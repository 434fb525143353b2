#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "common.h"

extern char** environ;

namespace noodlebench {

namespace {

void check(int rc, const char* what) {
  if (rc != 0) throw std::runtime_error(std::string(what) + " failed");
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               bool pipe_stdin, bool pipe_stdout) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  if (pipe_stdin) check(::pipe2(in_pipe, O_CLOEXEC), "pipe");
  if (pipe_stdout) check(::pipe2(out_pipe, O_CLOEXEC), "pipe");
  check(::pipe2(err_pipe, O_CLOEXEC), "pipe");

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipe_stdin) {
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  }
  if (pipe_stdout) {
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  }
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);

  std::vector<std::string> argv_storage{binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  launched_ns_ = now_ns();
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_stdin) {
    ::close(in_pipe[0]);
    stdin_fd_ = in_pipe[1];
  }
  if (pipe_stdout) {
    ::close(out_pipe[1]);
    stdout_fd_ = out_pipe[0];
  }
  ::close(err_pipe[1]);
  stderr_fd_ = err_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary);
  }
  reader_ = std::thread([this] { drain_stderr(); });
}

Daemon::~Daemon() {
  if (pid_ > 0 && exit_status_ < 0) stop(SIGKILL, 5.0);
  close_stdin();
  if (reader_.joinable()) reader_.join();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

void Daemon::close_stdin() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

void Daemon::drain_stderr() {
  std::string partial;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(stderr_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    partial.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t nl;
    std::vector<std::string> complete;
    while ((nl = partial.find('\n', start)) != std::string::npos) {
      complete.push_back(partial.substr(start, nl - start));
      start = nl + 1;
    }
    partial.erase(0, start);
    if (!complete.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::string& line : complete) lines_.push_back(std::move(line));
      cv_.notify_all();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!partial.empty()) lines_.push_back(partial);
  stderr_closed_ = true;
  cv_.notify_all();
}

std::string Daemon::wait_stderr(const std::string& needle, double timeout_s,
                                std::int64_t* at_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  std::size_t seen = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (true) {
    for (; seen < lines_.size(); ++seen) {
      if (lines_[seen].find(needle) != std::string::npos) {
        if (at_ns != nullptr) *at_ns = now_ns();
        return lines_[seen];
      }
    }
    if (stderr_closed_) break;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout && seen == lines_.size()) {
      break;
    }
  }
  std::string text;
  for (const std::string& line : lines_) text += line + "\n";
  throw std::runtime_error("noodled never printed '" + needle + "'; stderr:\n" + text);
}

std::string Daemon::stderr_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string text;
  for (const std::string& line : lines_) text += line + "\n";
  return text;
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

int Daemon::stop(int signo, double timeout_s) {
  if (pid_ <= 0) return -1;
  if (exit_status_ >= 0) return exit_status_;
  if (signo != 0) ::kill(pid_, signo);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) return exit_status_ = 255;
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(200);
  }
  exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  // The exit can overtake the reader thread: wait until it has drained the
  // pipe, so stderr_text() holds the final lines (--stats).
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::seconds(5), [this] { return stderr_closed_; });
  return exit_status_;
}

}  // namespace noodlebench
