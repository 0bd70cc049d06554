// The TCP server: thread-per-connection, many sessions, ONE shared mapping.
//
// A Server wraps one engine (static Engine or LiveEngine, fixed by the
// ServeOptions) — typically snapshot-backed, so the whole working set is a
// single read-only mmap — and answers the src/engine/ line protocol to any
// number of concurrent clients:
//
//   net::ServeOptions opts;
//   opts.engine = &eng;            // or opts.live = &live_engine
//   opts.port = 9999;
//   net::Server server(opts);
//   server.run();                  // until server.request_stop()
//
//   * thread-per-connection: each accepted socket gets a std::thread that
//     drives one engine::Session — blocking read, feed, pump(1), write —
//     with the request-line bound of ServeOptions::max_line_bytes
//     (overlong/malformed frames answer an err line and the session
//     continues — never a crash or a silent drop). One reply leaves per
//     write, so the early replies of a pipelined burst leave before the
//     late ones are computed;
//   * one engine, shared: the Engine is immutable and held const (see
//     engine.hpp "Thread safety"), so sessions need no lock and no
//     per-connection engine state at all;
//   * bounded concurrency: past --max-conns live sessions, a new client is
//     answered "err\tserver at capacity ..." and closed, which a scripted
//     client can distinguish from a refused connection;
//   * graceful shutdown: request_stop() is async-signal-safe (pgtool wires
//     it to SIGINT/SIGTERM). The accept loop wakes via a self-pipe, stops
//     accepting, half-closes every live session's socket (their reads
//     return EOF and the session loops wind down), joins all threads, and
//     run() returns with the counters intact.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <thread>

#include "engine/protocol.hpp"
#include "net/socket.hpp"
#include "util/sync.hpp"

namespace probgraph::engine {
class Engine;      // engine/engine.hpp
class LiveEngine;  // engine/generation.hpp
}  // namespace probgraph::engine

namespace probgraph::net {

/// One serving configuration. Exactly one of `engine` / `live` must be
/// non-null; neither is owned — construct the engine once (mapping the
/// snapshot once) and keep using it after the server stops.
struct ServeOptions {
  const engine::Engine* engine = nullptr;  ///< static snapshot serving
  engine::LiveEngine* live = nullptr;      ///< generation-swapping live serving
  std::uint16_t port = 0;  ///< 0 = ephemeral; Server::port() has the bound one
  int max_conns = 16;      ///< live sessions beyond this answer an err line
  std::size_t max_line_bytes = 64 * 1024;  ///< per-session request-line bound
  engine::ServeOptions session;  ///< per-session knobs (slow-query log, ...)
};

class Server {
 public:
  /// Binds and listens immediately (throws std::runtime_error on failure
  /// or a malformed ServeOptions); connections queue in the listen backlog
  /// until run() starts accepting, so port() is valid from construction.
  explicit Server(const ServeOptions& opts);

  /// The owner must ensure run() has returned before destroying.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Accept-and-serve until request_stop(). Joins every session thread
  /// before returning.
  void run();

  /// Stop the server from any thread or a signal handler: sets the stop
  /// flag and wakes the accept loop through the self-pipe. Async-signal-safe.
  void request_stop() noexcept;

  struct Counters {
    std::uint64_t accepted = 0;          ///< sessions served
    std::uint64_t rejected = 0;          ///< connections refused at capacity
    std::uint64_t queries_answered = 0;  ///< successful replies, all sessions
  };
  /// Exact after run() returns; a live snapshot while serving.
  [[nodiscard]] Counters counters() const noexcept {
    return {accepted_.load(), rejected_.load(), queries_answered_.load()};
  }

 private:
  struct Conn {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void handle(Conn* conn);
  /// Join and free finished sessions; with `all`, every session (stop path).
  void reap(bool all) EXCLUDES(conns_mu_);

  ServeOptions opts_;
  TcpListener listener_;
  // Stop path: request_stop() touches only stop_ and the self-pipe write
  // end — both async-signal-safe, neither guarded, which is exactly why a
  // signal handler may call it (no mutex may appear here; the annotations
  // keep the session table out of its reach).
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_{false};

  util::Mutex conns_mu_;  // guards the session table, never session I/O
  std::list<std::unique_ptr<Conn>> conns_ GUARDED_BY(conns_mu_);

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> queries_answered_{0};
};

}  // namespace probgraph::net
