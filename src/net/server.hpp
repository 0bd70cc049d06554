// Thread-per-connection transport: many TCP sessions, ONE shared mapping.
//
// A Server wraps one engine (static Engine or LiveEngine, fixed by the
// ServeOptions) — typically snapshot-backed, so the whole working set is a
// single read-only mmap — and answers the src/engine/ line protocol to any
// number of concurrent clients:
//
//   * thread-per-connection: each accepted socket gets a std::thread that
//     drives one engine::Session — blocking read, feed, pump, write —
//     with the request-line bound of ServeOptions::max_line_bytes
//     (overlong/malformed frames answer an err line and the session
//     continues — never a crash or a silent drop);
//   * one engine, shared: queries hoist their backend dispatch per call
//     and read the mapping concurrently; the Engine is immutable and held
//     const (see engine.hpp "Thread safety"), so sessions need no lock and
//     no per-connection state at all;
//   * bounded concurrency: past --max-conns live sessions, a new client is
//     answered "err\tserver at capacity ..." and closed, which a scripted
//     client can distinguish from a refused connection;
//   * graceful shutdown: request_stop() is async-signal-safe (pgtool wires
//     it to SIGINT/SIGTERM). The accept loop wakes via a self-pipe, stops
//     accepting, half-closes every live session's socket (their reads
//     return EOF and the session loops wind down), joins all threads, and
//     run() returns with the counters intact.
//
// The event-driven sibling is net/reactor.hpp; both implement
// net::Transport and answer byte-identical replies (net/transport.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <thread>

#include "net/socket.hpp"
#include "net/transport.hpp"
#include "util/sync.hpp"

namespace probgraph::net {

class Server final : public Transport {
 public:
  /// Binds and listens immediately (throws std::runtime_error on failure);
  /// connections queue in the backlog until run() starts accepting.
  /// Exactly one of opts.engine / opts.live must be non-null.
  explicit Server(const ServeOptions& opts);

  /// The owner must ensure run() has returned before destroying.
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept override {
    return listener_.port();
  }

  /// Accept-and-serve until request_stop(). Joins every session thread
  /// before returning.
  void run() override;

  /// Stop the server from any thread or a signal handler: sets the stop
  /// flag and wakes the accept loop through the self-pipe.
  void request_stop() noexcept override;

  /// Exact after run() returns; a live snapshot while serving.
  [[nodiscard]] Counters counters() const noexcept override {
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
