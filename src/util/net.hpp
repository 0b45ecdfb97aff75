// Minimal TCP transport shared by the distributed subsystem and the
// embedded HTTP endpoint.
//
// Peers exchange bytes over plain TCP sockets — length-prefixed MDP1 frames
// for dispatch/worker (dist/protocol.hpp), HTTP/1.x for the observability
// endpoint (obs/http.hpp). This header wraps the handful of POSIX calls both
// need — parse an address, listen, accept, connect, move bytes — behind the
// repo's Expected/Status error model, with every receive bounded by a poll()
// timeout so a dead or wedged peer surfaces as kTimeout instead of hanging
// the caller forever (the failure-detection primitive the dist task
// lifecycle is built on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace mosaic::util {

/// A "host:port" endpoint. Host stays textual (numeric IPv4 or a resolvable
/// name); port 0 is only meaningful for listeners (ephemeral bind, used by
/// tests to avoid port races).
struct Address {
  std::string host;
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Address&, const Address&) = default;
};

/// Parses "host:port". Errors (kInvalidArgument, with an actionable message)
/// on a missing colon, empty host, or a port outside [0, 65535].
[[nodiscard]] Expected<Address> parse_address(std::string_view text);

/// Parses a comma-separated worker list ("a:9000,b:9001"). Every entry must
/// parse and carry a non-zero port (you cannot connect to port 0).
[[nodiscard]] Expected<std::vector<Address>> parse_address_list(
    std::string_view text);

/// One connected TCP stream. Move-only; the destructor closes the fd.
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) noexcept : fd_(fd) {}
  ~Connection();

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Sends the whole buffer (SIGPIPE suppressed; a closed peer is kIoError).
  [[nodiscard]] Status send_all(const void* data, std::size_t len);

  /// Gather send: every byte of `parts`, in order, through sendmsg over one
  /// iovec list, so a header and its payload leave in one call instead of
  /// two (a second small write behind an unacknowledged first one is what
  /// Nagle holds back). Partial writes continue across part boundaries;
  /// empty parts are skipped. SIGPIPE suppressed as above.
  [[nodiscard]] Status send_all(std::span<const std::string_view> parts);

  /// Receives exactly `len` bytes. Returns kTimeout when the peer sends
  /// nothing for `timeout_seconds` (<= 0 waits forever), kIoError on EOF or
  /// a socket error. A timeout mid-buffer leaves the stream unusable for
  /// framing (bytes already consumed) — callers treat it as fatal for the
  /// connection, not the process.
  [[nodiscard]] Status recv_exact(void* data, std::size_t len,
                                  double timeout_seconds);

  /// Receives up to `len` bytes, returning however many arrived (0 on EOF).
  /// kTimeout when nothing arrived within `timeout_seconds`. Used by the
  /// HTTP server, which reads a request head of unknown length.
  [[nodiscard]] Expected<std::size_t> recv_some(void* data, std::size_t len,
                                                double timeout_seconds);

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Blocking connect with a bounded wait. kIoError covers refused /
/// unreachable / unresolvable; kTimeout a peer that never answers the SYN.
/// The stream has TCP_NODELAY set (so does every accepted one): every
/// message here is written whole and then answered, so Nagle's batching
/// only ever adds a delayed-ACK wait.
[[nodiscard]] Expected<Connection> connect_to(const Address& address,
                                              double timeout_seconds);

/// Listening socket (SO_REUSEADDR so restarted workers rebind immediately).
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&&) = delete;
  Listener& operator=(Listener&&) = delete;

  [[nodiscard]] Status listen_on(const Address& address);

  /// Port actually bound — resolves an ephemeral (port 0) request.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] bool listening() const noexcept { return fd_ >= 0; }

  /// Waits up to `timeout_seconds` (<= 0 forever) for one connection.
  /// kTimeout when nobody connected.
  [[nodiscard]] Expected<Connection> accept_connection(double timeout_seconds);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace mosaic::util
