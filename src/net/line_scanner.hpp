// Incremental newline framing over a byte buffer, with a bounded line
// length — the socket-independent core of the serving layer's framing.
//
// A TCP stream delivers frames in arbitrary pieces: a request may arrive
// split across reads ("sta" then "ts\n"), many-per-read ("tc\nstats\n"),
// or one byte at a time. LineScanner reassembles exactly one frame per
// next() call from whatever feed() has buffered so far, and keeps ALL of
// its state across feeds, including the overlong-frame resync below. It
// is the framing inside engine::Session, which every driver feeds (the
// TCP server and the stream driver alike), so bounded framing behaves
// identically on every driver.
//
// The length bound is the server's only defense against a client that
// streams bytes without ever sending a newline: instead of growing the
// buffer without limit, the scanner reports kOverlong ONCE the moment the
// bound is exceeded (or when an already-complete line turns out too long)
// and then silently discards up to the next newline, however many feeds
// that takes. The session answers the kOverlong with an err line and
// keeps serving, identical to any other malformed frame.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace probgraph::net {

class LineScanner {
 public:
  enum class Next {
    kLine,      ///< `line` holds one complete frame (newline stripped)
    kOverlong,  ///< a frame exceeded max_line_bytes; `line` holds the
                ///< error text; the stream resyncs at the next newline
    kNeedMore,  ///< no complete frame buffered — feed() more bytes
  };

  /// `max_line_bytes` == 0 means unbounded (trusted local streams).
  explicit LineScanner(std::size_t max_line_bytes = 0) noexcept
      : max_line_(max_line_bytes) {}

  [[nodiscard]] std::size_t max_line_bytes() const noexcept { return max_line_; }

  /// Append received bytes. Cheap: one amortized copy per byte.
  void feed(std::string_view bytes);
  void feed(const char* data, std::size_t n) { feed(std::string_view(data, n)); }

  /// Extract the next frame from the buffered bytes.
  [[nodiscard]] Next next(std::string& line);

  /// End-of-stream: deliver a final unterminated frame as a line (matching
  /// std::getline), or kNeedMore when nothing is pending. A tail that
  /// belongs to an already-reported overlong frame is swallowed. Resets
  /// the scanner; call once, after the transport saw EOF.
  [[nodiscard]] Next finish(std::string& line);

  /// Bytes buffered but not yet delivered (discarded overlong bytes are
  /// dropped eagerly and never counted).
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  [[nodiscard]] std::string overlong_text() const;

  std::size_t max_line_ = 0;
  // Consumed bytes stay in buf_ until the next feed compacts them away
  // (one amortized move per received byte, instead of an O(remaining)
  // front-erase per delivered line).
  std::string buf_;          // receive buffer; [pos_, size) is unconsumed
  std::size_t pos_ = 0;      // start of the unconsumed region
  std::size_t scanned_ = 0;  // buf_ prefix known to contain no newline (>= pos_)
  // True while skipping the tail of an overlong frame whose kOverlong was
  // already reported: everything up to and including the next newline is
  // discarded, across however many feed() calls it trickles in.
  bool discarding_ = false;
};

}  // namespace probgraph::net
