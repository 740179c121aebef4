#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace e2e {

namespace {

// The one server a run has up at a time (set-ups replace it in turn).
pid_t running_pid = -1;

}  // namespace

void kill_running_server() {
  if (running_pid <= 0) return;
  ::kill(running_pid, SIGKILL);
  int status = 0;
  ::waitpid(running_pid, &status, 0);
  running_pid = -1;
}

std::vector<std::string> deployment_flags() {
  return {"--reactors", "2", "--engine-workers", "2",
          "--workers",  "2", "--cache-mb",       "64"};
}

ServerProcess::ServerProcess(std::string serve_binary,
                             std::string socket_path, std::string log_path)
    : binary_(std::move(serve_binary)),
      socket_path_(std::move(socket_path)),
      log_path_(std::move(log_path)) {}

ServerProcess::~ServerProcess() { stop(); }

std::optional<double> ServerProcess::start(std::string* error) {
  std::vector<std::string> args = {binary_, "--unix", socket_path_};
  for (const auto& flag : deployment_flags()) args.push_back(flag);
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  ::unlink(socket_path_.c_str());
  const int log_fd =
      ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
             0644);
  if (log_fd < 0) {
    *error = "cannot open server log " + log_path_;
    return std::nullopt;
  }
  const pid_t parent = ::getpid();
  const std::int64_t spawned = now_ns();
  pid_ = ::fork();
  if (pid_ == 0) {
    // The server must never outlive the benchmark, even if it crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) {
    *error = "fork failed";
    return std::nullopt;
  }
  running_pid = pid_;

  const std::int64_t give_up = spawned + 20'000'000'000;
  std::string last_error;
  while (now_ns() < give_up) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = running_pid = -1;
      *error = "lrb_serve exited during start-up (see " + log_path_ + ")";
      return std::nullopt;
    }
    if (auto client = connect(&last_error)) {
      svc::FrameHeader header;
      std::string payload;
      if (client->call(svc::MsgType::kPing, 1, "ping", &header, &payload,
                       &last_error) &&
          header.type == svc::MsgType::kPong) {
        return static_cast<double>(now_ns() - spawned) * 1e-9;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *error = "lrb_serve did not answer a Ping within 20 s: " + last_error;
  stop();
  return std::nullopt;
}

std::optional<svc::Client> ServerProcess::connect(std::string* error) const {
  return svc::Client::connect_unix(socket_path_, error);
}

std::optional<std::string> ServerProcess::stats(svc::Client& client,
                                                std::string* error) {
  svc::FrameHeader header;
  std::string payload;
  if (!client.call(svc::MsgType::kStats, 0, {}, &header, &payload, error)) {
    return std::nullopt;
  }
  if (header.type != svc::MsgType::kStatsOk) {
    *error = "Stats answered with an unexpected frame type";
    return std::nullopt;
  }
  return payload;
}

double ServerProcess::peak_rss_mib() const {
  if (pid_ < 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool ServerProcess::stop() {
  if (pid_ < 0) return true;
  ::kill(pid_, SIGTERM);
  const std::int64_t give_up = now_ns() + 20'000'000'000;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ns() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = running_pid = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = running_pid = -1;
  ::unlink(socket_path_.c_str());
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace e2e
