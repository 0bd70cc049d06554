// Blocking test clients for net::Server: a reply reader for
// ping-pong tests and a scripted session that sends a whole script and
// reads the transcript, both over plain net::Socket reads.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/line_scanner.hpp"
#include "net/socket.hpp"

namespace probgraph {

/// Reads one reply line at a time from a connected socket: bulk reads go
/// into an unbounded net::LineScanner, so a reply split across segments,
/// or many replies in one segment, come out one line per next().
class ReplyReader {
 public:
  explicit ReplyReader(net::Socket& sock) : sock_(sock) {}

  /// The next reply line (newline stripped). False once the server closed
  /// the connection and every buffered reply was delivered; a final
  /// unterminated line is delivered first, like std::getline.
  bool next(std::string& line) {
    for (;;) {
      if (scanner_.next(line) == net::LineScanner::Next::kLine) return true;
      char buf[4096];
      const long got = sock_.read_some(buf, sizeof buf);
      if (got <= 0) return scanner_.finish(line) == net::LineScanner::Next::kLine;
      scanner_.feed(buf, static_cast<std::size_t>(got));
    }
  }

 private:
  net::Socket& sock_;
  net::LineScanner scanner_;
};

/// Read exactly one reply line (newline stripped) — for ping-pong tests.
inline std::string read_reply_line(ReplyReader& reader) {
  std::string line;
  EXPECT_TRUE(reader.next(line)) << "connection closed before a reply";
  return line;
}

/// Read every byte until the server closes the connection.
inline std::string drain(net::Socket& sock) {
  std::string out;
  char buf[4096];
  for (;;) {
    const long got = sock.read_some(buf, sizeof buf);
    if (got <= 0) break;
    out.append(buf, static_cast<std::size_t>(got));
  }
  return out;
}

/// Scripted client: connect, send the whole script, half-close, read the
/// full transcript. Mirrors `pgtool client < script`. The single write is
/// also the pipelining workload: every request of the script may land in
/// one segment, and the transcript must still be every reply in order.
inline std::string run_scripted_session(std::uint16_t port, const std::string& script) {
  net::Socket sock = net::connect_to("127.0.0.1", port);
  EXPECT_TRUE(sock.write_all(script));
  sock.shutdown_write();
  return drain(sock);
}

}  // namespace probgraph
