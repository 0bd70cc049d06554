#include "net/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/generation.hpp"
#include "engine/protocol.hpp"
#include "obs/metrics.hpp"

namespace probgraph::net {

namespace {

/// Bytes per blocking read: a whole pipelined burst of requests usually
/// arrives in one.
constexpr std::size_t kReadChunk = 16 * 1024;

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

}  // namespace

Server::Server(const ServeOptions& opts)
    : opts_(opts), listener_(opts.port) {
  if ((opts_.engine != nullptr) == (opts_.live != nullptr)) {
    throw std::runtime_error(
        "Server: exactly one of ServeOptions::engine / ::live must be set");
  }
  if (opts_.max_conns < 1) {
    throw std::runtime_error("Server: max_conns must be at least 1");
  }
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("Server: cannot create wake pipe");
  }
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);
}

Server::~Server() {
  reap(/*all=*/true);  // no-op after run(); safety net if run() never ran
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Server::request_stop() noexcept {
  stop_.store(true);
  // write() is async-signal-safe; one byte wakes the poll in run(). If the
  // pipe is full a previous wake-up is still pending, which is just as good.
  const char byte = 's';
  [[maybe_unused]] const auto rc = ::write(wake_pipe_[1], &byte, 1);
}

void Server::handle(Conn* conn) {
  try {
    auto host = opts_.live != nullptr ? engine::make_session_host(*opts_.live)
                                      : engine::make_session_host(*opts_.engine);
    engine::Session session(*host, opts_.session, opts_.max_line_bytes);
    char buf[kReadChunk];
    bool peer_open = true;
    while (peer_open && !session.done()) {
      const long got = conn->sock.read_some(buf, sizeof buf);
      if (got > 0) {
        session.feed({buf, static_cast<std::size_t>(got)});
      } else {
        session.feed_eof();  // orderly close or read error: serve what is buffered
      }
      // One request per pump and one write per reply: the early replies of
      // a pipelined burst leave before the late ones are computed.
      while (peer_open && session.pump(1) > 0) {
        std::string& out = session.output();
        // A failed write means the peer is gone: end quietly, like any
        // other session ending.
        if (!out.empty()) peer_open = conn->sock.write_all(out);
        out.clear();
      }
    }
    queries_answered_ += session.answered();
  } catch (...) {
    // The session answers engine errors in-band; anything escaping here
    // (e.g. bad_alloc) ends this session only, never the server.
  }
  // Flush a FIN so a client that sent `quit` but holds its end open sees
  // EOF. The fd itself stays open until reap() joins this thread — the
  // stop path may concurrently shutdown() it, which is safe; close() here
  // would race that.
  conn->sock.shutdown_both();
  conn->done.store(true);
}

void Server::reap(bool all) {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    util::MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock; for `all` this blocks until the sessions see
  // the shutdown() from the stop path and wind down.
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Server::run() {
  while (!stop_.load()) {
    pollfd fds[2] = {{listener_.fd(), POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || stop_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    Socket sock = listener_.accept();
    if (!sock.valid()) {
      if (stop_.load()) break;
      continue;
    }
    reap(/*all=*/false);

    bool at_capacity = false;
    {
      util::MutexLock lock(conns_mu_);
      if (conns_.size() >= static_cast<std::size_t>(opts_.max_conns)) {
        at_capacity = true;
      } else {
        ++accepted_;
        auto conn = std::make_unique<Conn>();
        conn->sock = std::move(sock);
        Conn* raw = conn.get();
        conns_.push_back(std::move(conn));
        // Spawn under the lock: once the Conn is in conns_, a concurrent
        // reap(all) may join-and-free it, so `thread` must be set first.
        raw->thread = std::thread([this, raw] { handle(raw); });
      }
    }
    if (at_capacity) {
      ++rejected_;
      // Registry mirror of the capacity counter, so a scrape sees
      // rejections without asking the Server object. Resolved outside
      // conns_mu_: the registry takes its creation lock, and no
      // serving-layer mutex may be held across it (metrics.hpp contract) —
      // nor across the blocking reject write below.
      obs::Registry::global()
          .counter("probgraph_connections_rejected_total",
                   "Connections answered 'server at capacity' and closed")
          .add();
      (void)sock.write_all("err\tserver at capacity (" +
                           std::to_string(opts_.max_conns) +
                           " live sessions); retry later\n");
      // Socket destructor closes the rejected connection.
    }
  }

  // Stop path: no new sessions; wake every live one out of its read.
  {
    util::MutexLock lock(conns_mu_);
    for (auto& conn : conns_) conn->sock.shutdown_both();
  }
  reap(/*all=*/true);
}

}  // namespace probgraph::net
