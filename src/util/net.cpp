#include "util/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "util/strings.hpp"

namespace mosaic::util {

namespace {

Error errno_error(const std::string& what) {
  return Error{ErrorCode::kIoError, what + ": " + std::strerror(errno)};
}

/// poll() for readability/writability. Returns 1 ready, 0 timeout, -1 error.
/// `timeout_seconds <= 0` waits forever (in bounded slices so huge doubles
/// don't overflow the int-milliseconds poll API).
int wait_for(int fd, short events, double timeout_seconds) {
  const bool forever = timeout_seconds <= 0.0;
  double remaining_ms = forever ? 0.0 : timeout_seconds * 1000.0;
  for (;;) {
    constexpr double kSliceMs = 60'000.0;
    const double slice =
        forever ? kSliceMs : std::min(remaining_ms, kSliceMs);
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::ceil(slice)));
    if (rc > 0) return 1;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (!forever) {
      remaining_ms -= slice;
      if (remaining_ms <= 0.0) return 0;
    }
  }
}

/// Disables Nagle on a connected stream. Best effort: a failure costs
/// latency, never correctness.
void set_no_delay(int fd) noexcept {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Resolves `address` to an IPv4/IPv6 sockaddr via getaddrinfo.
Expected<std::pair<sockaddr_storage, socklen_t>> resolve(
    const Address& address) {
  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  const std::string port = std::to_string(address.port);
  const int rc = ::getaddrinfo(address.host.c_str(), port.c_str(), &hints,
                               &info);
  if (rc != 0 || info == nullptr) {
    return Error{ErrorCode::kIoError, "cannot resolve '" + address.host +
                                          "': " + ::gai_strerror(rc)};
  }
  sockaddr_storage storage{};
  std::memcpy(&storage, info->ai_addr, info->ai_addrlen);
  const socklen_t len = info->ai_addrlen;
  ::freeaddrinfo(info);
  return std::pair<sockaddr_storage, socklen_t>{storage, len};
}

}  // namespace

std::string Address::to_string() const {
  return host + ":" + std::to_string(port);
}

Expected<Address> parse_address(std::string_view text) {
  const std::string_view trimmed = trim(text);
  const auto colon = trimmed.rfind(':');
  if (colon == std::string_view::npos) {
    return Error{ErrorCode::kInvalidArgument,
                 "address '" + std::string(trimmed) +
                     "' is not host:port (e.g. 127.0.0.1:9000)"};
  }
  const std::string_view host = trim(trimmed.substr(0, colon));
  const std::string_view port_text = trim(trimmed.substr(colon + 1));
  if (host.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "address '" + std::string(trimmed) + "' has an empty host"};
  }
  const auto port = parse_uint(port_text);
  if (!port.has_value() || *port > 65535) {
    return Error{ErrorCode::kInvalidArgument,
                 "address '" + std::string(trimmed) + "' port '" +
                     std::string(port_text) +
                     "' is not an integer in [0, 65535]"};
  }
  Address address;
  address.host = std::string(host);
  address.port = static_cast<std::uint16_t>(*port);
  return address;
}

Expected<std::vector<Address>> parse_address_list(std::string_view text) {
  std::vector<Address> addresses;
  for (const std::string_view field : split(text, ',')) {
    if (trim(field).empty()) continue;
    auto address = parse_address(field);
    if (!address.has_value()) return std::move(address).error();
    if (address->port == 0) {
      return Error{ErrorCode::kInvalidArgument,
                   "worker address '" + address->to_string() +
                       "' needs a non-zero port"};
    }
    addresses.push_back(std::move(*address));
  }
  if (addresses.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "no worker addresses given (expected host:port[,host:port])"};
  }
  return addresses;
}

Connection::~Connection() { close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Connection::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Connection::send_all(const void* data, std::size_t len) {
  const std::array<std::string_view, 1> parts{
      std::string_view(static_cast<const char*>(data), len)};
  return send_all(parts);
}

Status Connection::send_all(std::span<const std::string_view> parts) {
  if (fd_ < 0) return Error{ErrorCode::kIoError, "send on closed connection"};
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const std::string_view part : parts) {
    if (part.empty()) continue;
    iov.push_back(iovec{const_cast<char*>(part.data()), part.size()});
  }
  std::size_t first = 0;  // first iovec with bytes still to send
  while (first < iov.size()) {
    struct msghdr msg {};
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = std::min<std::size_t>(iov.size() - first, IOV_MAX);
    const ssize_t rc = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno_error("send");
    }
    // Skip the fully sent iovecs, then trim the partly sent one.
    auto sent = static_cast<std::size_t>(rc);
    while (first < iov.size() && sent >= iov[first].iov_len) {
      sent -= iov[first].iov_len;
      ++first;
    }
    if (sent > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  }
  return Status::success();
}

Status Connection::recv_exact(void* data, std::size_t len,
                              double timeout_seconds) {
  if (fd_ < 0) return Error{ErrorCode::kIoError, "recv on closed connection"};
  auto* bytes = static_cast<char*>(data);
  std::size_t received = 0;
  while (received < len) {
    const int ready = wait_for(fd_, POLLIN, timeout_seconds);
    if (ready < 0) return errno_error("poll");
    if (ready == 0) {
      return Error{ErrorCode::kTimeout,
                   "peer sent nothing for " +
                       std::to_string(timeout_seconds) + "s"};
    }
    const ssize_t rc = ::recv(fd_, bytes + received, len - received, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno_error("recv");
    }
    if (rc == 0) {
      return Error{ErrorCode::kIoError, "connection closed by peer"};
    }
    received += static_cast<std::size_t>(rc);
  }
  return Status::success();
}

Expected<std::size_t> Connection::recv_some(void* data, std::size_t len,
                                            double timeout_seconds) {
  if (fd_ < 0) return Error{ErrorCode::kIoError, "recv on closed connection"};
  for (;;) {
    const int ready = wait_for(fd_, POLLIN, timeout_seconds);
    if (ready < 0) return errno_error("poll");
    if (ready == 0) {
      return Error{ErrorCode::kTimeout,
                   "peer sent nothing for " +
                       std::to_string(timeout_seconds) + "s"};
    }
    const ssize_t rc = ::recv(fd_, data, len, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno_error("recv");
    }
    return static_cast<std::size_t>(rc);
  }
}

Expected<Connection> connect_to(const Address& address,
                                double timeout_seconds) {
  auto resolved = resolve(address);
  if (!resolved.has_value()) return std::move(resolved).error();
  const int fd = ::socket(resolved->first.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return errno_error("socket");
  Connection conn(fd);  // owns fd from here on

  // Non-blocking connect + poll gives the bounded wait; the socket goes back
  // to blocking afterwards (all I/O timeouts run through poll anyway).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(
      fd, reinterpret_cast<const sockaddr*>(&resolved->first),
      resolved->second);
  if (rc != 0 && errno != EINPROGRESS) {
    return errno_error("connect to " + address.to_string());
  }
  if (rc != 0) {
    const int ready = wait_for(fd, POLLOUT, timeout_seconds);
    if (ready < 0) return errno_error("poll");
    if (ready == 0) {
      return Error{ErrorCode::kTimeout,
                   "connect to " + address.to_string() + " timed out"};
    }
    int err = 0;
    socklen_t err_len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      return errno_error("getsockopt");
    }
    if (err != 0) {
      return Error{ErrorCode::kIoError, "connect to " + address.to_string() +
                                            ": " + std::strerror(err)};
    }
  }
  (void)::fcntl(fd, F_SETFL, flags);
  set_no_delay(fd);
  return conn;
}

Listener::~Listener() { close(); }

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Listener::listen_on(const Address& address) {
  auto resolved = resolve(address);
  if (!resolved.has_value()) return std::move(resolved).error();
  const int fd = ::socket(resolved->first.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return errno_error("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&resolved->first),
             resolved->second) != 0) {
    const Error error = errno_error("bind " + address.to_string());
    ::close(fd);
    return error;
  }
  if (::listen(fd, 16) != 0) {
    const Error error = errno_error("listen on " + address.to_string());
    ::close(fd);
    return error;
  }
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Error error = errno_error("getsockname");
    ::close(fd);
    return error;
  }
  if (bound.ss_family == AF_INET) {
    port_ = ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
  } else if (bound.ss_family == AF_INET6) {
    port_ = ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
  } else {
    port_ = address.port;
  }
  close();
  fd_ = fd;
  return Status::success();
}

Expected<Connection> Listener::accept_connection(double timeout_seconds) {
  if (fd_ < 0) return Error{ErrorCode::kIoError, "accept on closed listener"};
  const int ready = wait_for(fd_, POLLIN, timeout_seconds);
  if (ready < 0) return errno_error("poll");
  if (ready == 0) {
    return Error{ErrorCode::kTimeout, "no connection within " +
                                          std::to_string(timeout_seconds) +
                                          "s"};
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return errno_error("accept");
  set_no_delay(fd);
  return Connection(fd);
}

}  // namespace mosaic::util
