#include "svc/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>

namespace lrb::svc {

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool set_errno_error(std::string* error, const std::string& what) {
  return set_error(error, what + ": " + std::strerror(errno));
}

/// Connects `fd` to `addr`, honouring a 0-means-blocking timeout. On
/// timeout-mode success the socket is restored to blocking.
bool connect_with_timeout(int fd, const sockaddr* addr, socklen_t addr_len,
                          std::uint32_t timeout_ms, std::string* error,
                          const std::string& what) {
  if (timeout_ms == 0) {
    if (connect(fd, addr, addr_len) != 0) {
      return set_errno_error(error, what);
    }
    return true;
  }
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return set_errno_error(error, what + " (nonblocking)");
  }
  if (connect(fd, addr, addr_len) != 0) {
    if (errno != EINPROGRESS) return set_errno_error(error, what);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return set_error(error, what + ": connect timeout");
      pollfd entry{fd, POLLOUT, 0};
      const int ready = poll(&entry, 1, static_cast<int>(remaining));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return set_errno_error(error, what + " (poll)");
      }
      if (ready == 0) return set_error(error, what + ": connect timeout");
      int so_error = 0;
      socklen_t len = sizeof so_error;
      if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
        return set_errno_error(error, what + " (getsockopt)");
      }
      if (so_error != 0) {
        errno = so_error;
        return set_errno_error(error, what);
      }
      break;
    }
  }
  if (fcntl(fd, F_SETFL, flags) != 0) {
    return set_errno_error(error, what + " (blocking restore)");
  }
  return true;
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      io_(other.io_),
      recv_buf_(std::move(other.recv_buf_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    io_ = other.io_;
    recv_buf_ = std::move(other.recv_buf_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    io_->on_close(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  recv_buf_.clear();
}

std::optional<Client> Client::connect_unix(const std::string& path,
                                           std::string* error,
                                           fault::SocketIo* io,
                                           std::uint32_t connect_timeout_ms) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    set_error(error, "unix path too long");
    return std::nullopt;
  }
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    set_errno_error(error, "socket(AF_UNIX)");
    return std::nullopt;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (!connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof addr, connect_timeout_ms, error,
                            "connect(" + path + ")")) {
    ::close(fd);
    return std::nullopt;
  }
  Client client;
  client.fd_ = fd;
  client.io_ = io;
  return client;
}

std::optional<Client> Client::connect_tcp(const std::string& host, int port,
                                          std::string* error,
                                          fault::SocketIo* io,
                                          std::uint32_t connect_timeout_ms) {
  if (port < 1 || port > 65535) {
    set_error(error, "tcp port " + std::to_string(port) + " out of range");
    return std::nullopt;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_errno_error(error, "socket(AF_INET)");
    return std::nullopt;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    set_error(error, "bad address " + host);
    ::close(fd);
    return std::nullopt;
  }
  if (!connect_with_timeout(
          fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
          connect_timeout_ms, error,
          "connect(" + host + ":" + std::to_string(port) + ")")) {
    ::close(fd);
    return std::nullopt;
  }
  Client client;
  client.fd_ = fd;
  client.io_ = io;
  return client;
}

bool Client::send_bytes(std::string_view bytes, std::string* error) {
  if (fd_ < 0) return set_error(error, "not connected");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        io_->send(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return set_errno_error(error, "send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::send_frame(MsgType type, std::uint64_t request_id,
                        std::string_view payload, std::string* error) {
  std::string frame;
  encode_frame(frame, type, request_id, payload);
  return send_bytes(frame, error);
}

bool Client::recv_frame(FrameHeader* header, std::string* payload,
                        std::string* error) {
  return recv_frame_until(header, payload,
                          std::chrono::steady_clock::time_point::max(),
                          error, nullptr);
}

bool Client::recv_frame_until(FrameHeader* header, std::string* payload,
                              std::chrono::steady_clock::time_point deadline,
                              std::string* error, bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (fd_ < 0) return set_error(error, "not connected");
  const bool bounded =
      deadline != std::chrono::steady_clock::time_point::max();
  char chunk[65536];
  for (;;) {
    switch (decode_header(recv_buf_, header)) {
      case DecodeStatus::kNeedMore:
        break;
      case DecodeStatus::kOk:
        if (recv_buf_.size() - kHeaderSize >= header->payload_len) {
          payload->assign(recv_buf_, kHeaderSize, header->payload_len);
          recv_buf_.erase(0, kHeaderSize + header->payload_len);
          return true;
        }
        break;
      case DecodeStatus::kBadMagic:
        return set_error(error, "reply has bad magic");
      case DecodeStatus::kBadVersion:
        return set_error(error, "reply has unsupported version");
      case DecodeStatus::kTooLarge:
        return set_error(error, "reply payload exceeds cap");
    }
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) {
        if (timed_out != nullptr) *timed_out = true;
        return set_error(error, "receive timeout");
      }
      pollfd entry{fd_, POLLIN, 0};
      const int ready = io_->poll(&entry, 1, static_cast<int>(remaining));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return set_errno_error(error, "poll");
      }
      if (ready == 0) {
        if (timed_out != nullptr) *timed_out = true;
        return set_error(error, "receive timeout");
      }
    }
    const ssize_t n = io_->recv(fd_, chunk, sizeof chunk);
    if (n == 0) return set_error(error, "connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      return set_errno_error(error, "recv");
    }
    recv_buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Client::call(MsgType type, std::uint64_t request_id,
                  std::string_view payload, FrameHeader* reply_header,
                  std::string* reply_payload, std::string* error) {
  if (!send_frame(type, request_id, payload, error)) return false;
  if (!recv_frame(reply_header, reply_payload, error)) return false;
  if (reply_header->request_id != request_id) {
    return set_error(error, "reply request id mismatch");
  }
  return true;
}

std::optional<Client::SolveOutcome> Client::solve(const SolveRequest& request,
                                                  std::uint64_t request_id,
                                                  std::string* error) {
  FrameHeader header;
  std::string payload;
  if (!call(MsgType::kSolve, request_id, encode_solve_request(request),
            &header, &payload, error)) {
    return std::nullopt;
  }
  return decode_solve_outcome(header.type, std::move(payload), error);
}

std::optional<Client::SolveOutcome> Client::decode_solve_outcome(
    MsgType type, std::string payload, std::string* error) {
  SolveOutcome outcome;
  if (type == MsgType::kSolveOk) {
    std::string decode_error;
    auto result = decode_solve_reply_payload(payload, &decode_error);
    if (!result) {
      set_error(error, "bad solve reply: " + decode_error);
      return std::nullopt;
    }
    outcome.result = std::move(*result);
    outcome.raw_payload = std::move(payload);
    return outcome;
  }
  if (type == MsgType::kError) {
    outcome.server_error = decode_error_payload(payload);
    if (!outcome.server_error) {
      set_error(error, "malformed error reply");
      return std::nullopt;
    }
    return outcome;
  }
  set_error(error, "unexpected reply type");
  return std::nullopt;
}

Endpoint Endpoint::unix_socket(std::string path) {
  Endpoint endpoint;
  endpoint.unix_path = std::move(path);
  return endpoint;
}

std::optional<Endpoint> Endpoint::parse_tcp(std::string_view text,
                                            std::string* error) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    set_error(error, "want HOST:PORT, got '" + std::string(text) + "'");
    return std::nullopt;
  }
  const std::string_view digits = text.substr(colon + 1);
  unsigned port = 0;
  const auto [end, status] =
      std::from_chars(digits.data(), digits.data() + digits.size(), port);
  if (status != std::errc{} || end != digits.data() + digits.size() ||
      port < 1 || port > 65535) {
    set_error(error, "bad port '" + std::string(digits) +
                         "' (want 1..65535)");
    return std::nullopt;
  }
  Endpoint endpoint;
  endpoint.tcp_host = std::string(text.substr(0, colon));
  endpoint.tcp_port = static_cast<int>(port);
  return endpoint;
}

std::optional<Client> Endpoint::connect(
    std::string* error, fault::SocketIo* io,
    std::uint32_t connect_timeout_ms) const {
  return unix_path.empty()
             ? Client::connect_tcp(tcp_host, tcp_port, error, io,
                                   connect_timeout_ms)
             : Client::connect_unix(unix_path, error, io,
                                    connect_timeout_ms);
}

}  // namespace lrb::svc
