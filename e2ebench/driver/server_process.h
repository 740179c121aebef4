// The lrb_serve child process under test: spawned from the binary the
// benchmark built, on a Unix socket in the working directory, with the one
// fixed deployment every workload uses.

#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "svc/client.h"

namespace e2e {

namespace svc = lrb::svc;

/// The deployment, identical for every workload (recorded in provenance).
[[nodiscard]] std::vector<std::string> deployment_flags();

/// Kills and reaps the server a ServerProcess is running, if any; for exit
/// paths that skip destructors.
void kill_running_server();

class ServerProcess {
 public:
  ServerProcess(std::string serve_binary, std::string socket_path,
                std::string log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and returns once a Ping on a fresh connection is
  /// answered; the result is the seconds from spawn to that Pong.
  [[nodiscard]] std::optional<double> start(std::string* error);

  [[nodiscard]] std::optional<svc::Client> connect(std::string* error) const;

  /// One Stats round trip on `client` (any idle workload connection).
  [[nodiscard]] static std::optional<std::string> stats(svc::Client& client,
                                                        std::string* error);

  /// VmHWM of the running server in MiB; 0 if unreadable.
  [[nodiscard]] double peak_rss_mib() const;

  /// SIGTERM (the server drains), then waits for the exit; kills it if
  /// the drain takes longer than 20 s. Returns true on a clean exit.
  bool stop();

 private:
  std::string binary_;
  std::string socket_path_;
  std::string log_path_;
  pid_t pid_ = -1;
};

}  // namespace e2e
