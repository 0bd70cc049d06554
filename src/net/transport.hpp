// The transport seam: one serving configuration, interchangeable engines
// underneath it.
//
// Both TCP transports — the thread-per-connection Server (net/server.hpp)
// and the epoll reactor (net/reactor.hpp) — consume the SAME ServeOptions
// and implement the SAME Transport interface, so pgtool (and every test)
// picks a transport with one enum instead of a ctor matrix:
//
//   net::ServeOptions opts;
//   opts.engine = &eng;            // or opts.live = &live_engine
//   opts.port = 9999;
//   auto t = net::make_transport(net::TransportKind::kEpoll, opts);
//   t->run();                      // until t->request_stop()
//
// The contract every transport honors:
//
//   * reply bytes are identical across transports — the golden serve
//     transcripts pass unchanged on either one, static or --live;
//   * capacity rejects answer the same in-band err line and close;
//   * request_stop() is async-signal-safe and run() returns with the
//     Counters intact after joining/draining every session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "engine/protocol.hpp"

namespace probgraph::engine {
class Engine;      // engine/engine.hpp
class LiveEngine;  // engine/generation.hpp
}  // namespace probgraph::engine

namespace probgraph::net {

enum class TransportKind : std::uint8_t {
  kThreads,  ///< thread-per-connection, blocking I/O (net/server.hpp)
  kEpoll,    ///< event-driven reactor, nonblocking I/O (net/reactor.hpp)
};

/// "threads" / "epoll" → the kind; anything else → nullopt (the caller
/// owns the usage error).
[[nodiscard]] std::optional<TransportKind> parse_transport_kind(
    std::string_view name);

/// The flag-value spelling of a kind ("threads" / "epoll").
[[nodiscard]] const char* transport_kind_name(TransportKind kind) noexcept;

/// One serving configuration, consumed by both transports. Exactly one of
/// `engine` / `live` must be non-null; neither is owned — construct the
/// engine once (mapping the snapshot once) and keep using it after the
/// transport stops.
struct ServeOptions {
  const engine::Engine* engine = nullptr;  ///< static snapshot serving
  engine::LiveEngine* live = nullptr;      ///< generation-swapping live serving
  std::uint16_t port = 0;  ///< 0 = ephemeral; Transport::port() has the bound one
  int max_conns = 16;      ///< live sessions beyond this answer an err line
  std::size_t max_line_bytes = 64 * 1024;  ///< per-session request-line bound
  int backlog = 64;
  /// Reactor worker threads draining the ready queue; 0 = auto (hardware
  /// concurrency, min 2). Ignored by the threads transport.
  int workers = 0;
  /// Reactor fairness: one scheduling turn answers at most this many
  /// buffered requests before the session re-queues behind other ready
  /// sessions. Ignored by the threads transport (each session owns a
  /// thread). Must be >= 1.
  std::size_t max_requests_per_turn = 32;
  engine::ServeOptions session;  ///< per-session knobs (slow-query log, ...)
};

/// The lifecycle every TCP transport implements. port() is valid from
/// construction (binding happens in the ctor, which throws
/// std::runtime_error on failure); run() serves until request_stop() and
/// joins/drains every session before returning; the owner must ensure
/// run() has returned before destroying.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual std::uint16_t port() const noexcept = 0;

  /// Accept-and-serve until request_stop().
  virtual void run() = 0;

  /// Stop from any thread or a signal handler: async-signal-safe.
  virtual void request_stop() noexcept = 0;

  struct Counters {
    std::uint64_t accepted = 0;          ///< sessions served
    std::uint64_t rejected = 0;          ///< connections refused at capacity
    std::uint64_t queries_answered = 0;  ///< successful replies, all sessions
  };
  /// Exact after run() returns; a live snapshot while serving.
  [[nodiscard]] virtual Counters counters() const noexcept = 0;
};

/// Construct the chosen transport (bound and listening; throws
/// std::runtime_error on bind failure or a malformed ServeOptions).
[[nodiscard]] std::unique_ptr<Transport> make_transport(TransportKind kind,
                                                        const ServeOptions& opts);

}  // namespace probgraph::net
